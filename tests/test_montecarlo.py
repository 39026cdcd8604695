"""Seeded sampling: determinism, moment sanity, oracle agreement."""

import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from complexchaos import ChaosPolynomial, Kernel, expand, montecarlo, random_kernel
from complexchaos.montecarlo import (
    GENERATOR_NAME,
    SamplePlan,
    estimate,
    evaluate_polynomial,
    sample_coordinates,
)
from complexchaos.oracle import expectation
from conftest import DictPolynomial, reference_evaluate_polynomial, reference_sample_coordinates

BLOCK = montecarlo._BLOCK
ROW_COUNTS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 37]


def poly(n, entries):
    return ChaosPolynomial(n, {(tuple(a), tuple(b)): c for (a, b), c in entries.items()})


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


coefficients = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def polynomials(draw):
    """Up to six terms on 1..8 cells with exponents 0..3, plus an optional
    constant term; no terms at all gives the zero polynomial."""
    n = draw(st.integers(1, 8))
    exponents = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    terms = draw(st.dictionaries(st.tuples(exponents, exponents), coefficients, max_size=6))
    if draw(st.booleans()):
        terms[((0,) * n, (0,) * n)] = draw(coefficients)
    return ChaosPolynomial(n, terms)


class TestSamplePlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplePlan(seed=1, samples=1, n=1)
        with pytest.raises(ValueError):
            SamplePlan(seed=1, samples=10, n=0)
        with pytest.raises(ValueError):
            SamplePlan(seed=-1, samples=10, n=1)


class TestSampling:
    def test_deterministic_replay(self):
        plan = SamplePlan(seed=7, samples=64, n=2)
        a = sample_coordinates(plan)
        b = sample_coordinates(plan)
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = sample_coordinates(SamplePlan(seed=7, samples=64, n=2))
        b = sample_coordinates(SamplePlan(seed=8, samples=64, n=2))
        assert not np.allclose(a, b)

    def test_moment_sanity_within_four_stderr(self):
        plan = SamplePlan(seed=11, samples=100_000, n=1)
        second = estimate(poly(1, {((1,), (1,)): 1.0}), plan)
        assert abs(second.value - 1.0) <= 4 * second.stderr
        pseudo = estimate(poly(1, {((2,), (0,)): 1.0}), plan)
        assert abs(pseudo.value) <= 4 * pseudo.stderr
        mean = estimate(poly(1, {((1,), (0,)): 1.0}), plan)
        assert abs(mean.value) <= 4 * mean.stderr


class TestEstimate:
    def test_constant_has_zero_stderr(self):
        est = estimate(ChaosPolynomial.constant(7.0, 1), SamplePlan(seed=1, samples=100, n=1))
        assert est.value == 7.0
        assert est.stderr == 0.0
        assert est.samples == 100

    def test_estimate_is_reproducible_bitwise(self):
        p = expand(Kernel.basis(1, 1, (0, 1), 2))
        sq = p * p.conjugate()
        plan = SamplePlan(seed=3, samples=10_000, n=2)
        first = estimate(sq, plan)
        second = estimate(sq, plan)
        assert first == second  # dataclass equality: exact floats

    def test_isometry_estimate_matches_oracle(self):
        p = expand(Kernel.basis(1, 1, (0, 1), 2))
        sq = p * p.conjugate()
        est = estimate(sq, SamplePlan(seed=5, samples=100_000, n=2))
        assert abs(est.value - expectation(sq).real) <= 4 * est.stderr

    def test_plan_dimension_guard(self):
        with pytest.raises(ValueError):
            estimate(ChaosPolynomial.constant(1.0, 2), SamplePlan(seed=1, samples=10, n=1))

    def test_odd_sample_counts(self):
        # not a multiple of the reduction chunk
        est = estimate(
            poly(1, {((1,), (1,)): 1.0}), SamplePlan(seed=9, samples=16384 + 37, n=1)
        )
        assert est.samples == 16384 + 37
        assert est.stderr > 0


class TestEvaluate:
    def test_matches_pointwise_evaluation(self, rng):
        # Against the dict reference's point-by-point Python evaluation.
        p = expand(random_kernel(2, 1, 2, rng))
        z = sample_coordinates(SamplePlan(seed=13, samples=8, n=2))
        batch = evaluate_polynomial(p, z)
        reference = DictPolynomial(p.n, dict(p.terms))
        for k in range(8):
            assert batch[k] == pytest.approx(reference.evaluate(z[k]), rel=1e-12)

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64, np.complex64])
    def test_constant_and_zero_polynomials(self, rows, dtype):
        z = reference_sample_coordinates(SamplePlan(seed=2, samples=max(rows, 2), n=3))[:rows]
        z = z.astype(dtype) if dtype != np.float64 else z.real.copy()
        for p in (ChaosPolynomial.constant(2.5 - 1j, 3), ChaosPolynomial(3, {})):
            assert_same_bits(evaluate_polynomial(p, z), reference_evaluate_polynomial(p, z))

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            evaluate_polynomial(ChaosPolynomial.constant(1.0, 2), np.zeros((4, 3), complex))


class TestAgainstReference:
    """Row blocks against the unblocked sampler and evaluator, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        poly=polynomials(),
        rows=st.sampled_from(ROW_COUNTS),
        dtype=st.sampled_from([np.complex128, np.float64, np.complex64]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_unblocked_reference(self, poly, rows, dtype, seed):
        plan = SamplePlan(seed=seed, samples=max(rows, 2), n=poly.n)
        z = sample_coordinates(plan)
        assert_same_bits(z, reference_sample_coordinates(plan))
        z = z[:rows]
        z = z.astype(dtype) if dtype != np.float64 else z.real.copy()
        assert_same_bits(evaluate_polynomial(poly, z), reference_evaluate_polynomial(poly, z))


class TestBlockSize:
    """The row block is a cache size only: any block size gives the same bits."""

    @pytest.fixture(scope="class")
    def poly(self):
        f = expand(random_kernel(2, 1, 3, np.random.default_rng(4)))
        return f * f.conjugate()

    def results(self, poly):
        plan = SamplePlan(seed=21, samples=1000, n=3)
        z = sample_coordinates(plan)
        at_point = poly.evaluate([0.3 - 1.2j, 0.7j, -1.1])
        return z, evaluate_polynomial(poly, z), estimate(poly, plan), at_point

    def test_block_size_changes_no_bit(self, monkeypatch, poly):
        z, values, est, at_point = self.results(poly)
        for block in (1, 3, BLOCK):
            monkeypatch.setattr(montecarlo, "_BLOCK", block)
            z2, values2, est2, at_point2 = self.results(poly)
            assert_same_bits(z2, z)
            assert_same_bits(values2, values)
            assert est2 == est
            assert at_point2 == at_point
        point = np.array([[0.3 - 1.2j, 0.7j, -1.1]])
        assert at_point == complex(reference_evaluate_polynomial(poly, point)[0])


class TestParallelSampler:
    """Blocks drawn by several workers from Philox offsets, against the
    unblocked single-stream reference, bit for bit."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("block", [1, 2, 3, 5, 8192])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_reference(self, monkeypatch, n, block, workers):
        # Offsets start * n * 2 that are not a multiple of 4 draws are
        # included (odd n and odd block sizes).
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        plan = SamplePlan(seed=2**63 + n, samples=3 * block + 2, n=n)
        assert_same_bits(sample_coordinates(plan), reference_sample_coordinates(plan))

    def test_concurrent_callers(self, monkeypatch):
        """Four callers with three workers each, switching threads often."""
        monkeypatch.setattr(montecarlo, "_BLOCK", 5)
        monkeypatch.setattr(montecarlo, "_WORKERS", 3)
        plans = [SamplePlan(seed=40 + k, samples=997 + k, n=1 + k) for k in range(4)]
        results = [None] * len(plans)

        def caller(k):
            results[k] = sample_coordinates(plans[k])

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(plans))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for plan, got in zip(plans, results):
            assert_same_bits(got, reference_sample_coordinates(plan))

    @pytest.mark.parametrize("in_helper", [False, True])
    def test_worker_error_reaches_caller(self, monkeypatch, in_helper):
        """The third log1p call raises, or the first one in a helper thread."""
        monkeypatch.setattr(montecarlo, "_BLOCK", 4)
        monkeypatch.setattr(montecarlo, "_WORKERS", 3)
        log1p, calls, lock = np.log1p, itertools.count(1), threading.Lock()
        caller = threading.current_thread()

        def failing_log1p(*args, **kwargs):
            with lock:
                call = next(calls)
            if (threading.current_thread() is not caller) if in_helper else call == 3:
                raise RuntimeError("block failed")
            return log1p(*args, **kwargs)

        monkeypatch.setattr(np, "log1p", failing_log1p)
        with pytest.raises(RuntimeError, match="block failed"):
            sample_coordinates(SamplePlan(seed=1, samples=40, n=2))


class TestOracleAgreement:
    def test_coverage_over_100_seeded_trials(self):
        rng = np.random.default_rng(123)
        trials = 100
        within = 0
        for t in range(trials):
            p = int(rng.integers(0, 3))
            q = int(rng.integers(0 if p else 1, 3 - p))
            f = random_kernel(p, q, 2, rng)
            poly_f = expand(f)
            sq = poly_f * poly_f.conjugate()
            est = estimate(sq, SamplePlan(seed=500 + t, samples=5_000, n=2))
            target = expectation(sq).real
            if abs(est.value - target) <= 4 * est.stderr:
                within += 1
        assert within / trials >= 0.95

    def test_generator_name_is_stable(self):
        assert GENERATOR_NAME == "philox4x64:polar-boxmuller"
