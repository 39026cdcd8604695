"""Seeded sampling: determinism, moment sanity, oracle agreement."""

import functools
import gc
import itertools
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from complexchaos import ChaosPolynomial, Kernel, chaos, expand, montecarlo, random_kernel, suites
from complexchaos.montecarlo import (
    GENERATOR_NAME,
    SamplePlan,
    estimate,
    evaluate_polynomial,
    sample_coordinates,
)
from complexchaos.oracle import expectation, unpack
from conftest import (
    DictPolynomial,
    reference_evaluate_polynomial,
    reference_sample_coordinates,
    termwise_evaluate_polynomial,
)

BLOCK = montecarlo._BLOCK
ROW_COUNTS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 37]


def poly(n, entries):
    return ChaosPolynomial(n, {(tuple(a), tuple(b)): c for (a, b), c in entries.items()})


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


def as_dtype(z, dtype):
    return z.astype(dtype) if dtype != np.float64 else z.real.copy()


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


def term_moduli_sum(poly, x):
    """Per row of x, the sum of |c| |z^a| |conj(z)^b| over the terms of poly."""
    exps = np.hstack([unpack(poly.z, poly.n), unpack(poly.zc, poly.n)])
    moduli = np.abs(np.hstack([x, x]))
    return np.prod(moduli[:, None, :] ** exps[None], axis=2) @ np.abs(poly.re + 1j * poly.im)


def operand_products():
    """Polynomials evaluated through their operands: a product with its own
    conjugate (one shared operand), a product of a product, a power (a
    chain of products from the constant 1) and a product with a polynomial
    built from a mapping."""
    rng = np.random.default_rng(4)
    f = expand(random_kernel(2, 1, 3, rng))
    g = expand(random_kernel(1, 1, 3, rng))
    mapped = ChaosPolynomial(3, {((1, 0, 2), (0, 1, 0)): 0.5 - 2j, ((0,) * 3, (0,) * 3): 1.5})
    return [f * f.conjugate(), (f * g) * f.conjugate(), f**3, mapped * g]


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


class TestAgainstTermwiseEvaluation:
    """The monomial tables and grouped sums round differently from the former
    term-by-term evaluator, within 1e-12 of the row's sum of term moduli."""

    @settings(max_examples=60, deadline=None)
    @given(
        poly=polynomials(),
        rows=st.sampled_from(ROW_COUNTS),
        dtype=st.sampled_from([np.complex128, np.float64, np.complex64]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_within_tolerance(self, poly, rows, dtype, seed):
        z = as_dtype(sample_coordinates(SamplePlan(seed=seed, samples=max(rows, 2), n=poly.n))[:rows], dtype)
        # The former evaluator raised complex64 samples to powers in
        # complex64; it gets the same points in complex128.
        x = z.astype(np.result_type(z.dtype, np.float64))
        # Below the smallest normal float64 a relative bound means nothing.
        bound = 1e-12 * term_moduli_sum(poly, x) + np.finfo(np.float64).tiny
        assert np.all(np.abs(evaluate_polynomial(poly, z) - termwise_evaluate_polynomial(poly, x)) <= bound)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestNonFinite:
    """A NaN or inf coefficient or coordinate reaches the estimate as a
    non-finite value on every path of the grouped evaluator."""

    # One term per path: the constant, a term without conjugate part (its
    # z-monomial z_0**2 is built from z_0), a grouped term (z_0 times an
    # inner sum with conj(z_0) conj(z_1)), a term without z part.
    PATHS = {
        "constant": ((0, 0), (0, 0)),
        "no conjugate part": ((2, 0), (0, 0)),
        "grouped": ((1, 0), (1, 1)),
        "no z part": ((0, 0), (0, 1)),
    }
    BAD = [math.nan, math.inf, complex(0, -math.inf), complex(math.nan, 1.0)]

    def polynomial(self, path, coeff):
        terms = {key: 0.5 + 0.25j * k for k, key in enumerate(self.PATHS.values())}
        terms[((1, 0), (0, 1))] = -1.5  # a second term in the grouped term's group
        terms[self.PATHS[path]] = coeff
        return ChaosPolynomial(2, terms)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("path", PATHS)
    def test_coefficient(self, path, bad):
        plan = SamplePlan(seed=3, samples=100, n=2)
        poly = self.polynomial(path, bad)
        assert not np.isfinite(evaluate_polynomial(poly, sample_coordinates(plan))).any()
        est = estimate(poly, plan)
        assert not all(map(math.isfinite, (est.value.real, est.value.imag, est.stderr)))

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("path", [path for path in PATHS if path != "constant"])
    def test_coordinate(self, path, bad):
        """Only the row holding the value goes non-finite, in the cell that
        the path's term uses last."""
        poly = self.polynomial(path, 1.0)
        z = sample_coordinates(SamplePlan(seed=3, samples=100, n=2))
        a, b = self.PATHS[path]
        z[40, max(k for k in range(2) if a[k] or b[k])] = bad
        values = evaluate_polynomial(poly, z)
        assert not np.isfinite(values[40]) and np.isfinite(np.delete(values, 40)).all()

    @pytest.mark.parametrize("bad", BAD)
    def test_sigma_and_battery(self, monkeypatch, bad):
        """One non-finite coordinate per sample set: mc_sigma is NaN while the
        oracle value stays finite, and the battery fails."""
        draw = montecarlo.sample_coordinates

        def spoiled(plan):
            z = draw(plan)
            z[plan.samples // 2, plan.n - 1] = bad
            return z

        monkeypatch.setattr(montecarlo, "sample_coordinates", spoiled)
        f = random_kernel(1, 1, 2, np.random.default_rng(8))
        _, target, sigma = suites.mc_sigma(f, SamplePlan(seed=1, samples=200, n=2))
        assert math.isfinite(target) and math.isnan(sigma)
        report = suites.mc_isometry_report(kernels=3, samples=200, seed=110)
        assert math.isnan(report.residual) and not report.passed


class TestBlockSize:
    """The row block is a cache size only: any block size gives the same bits."""

    @pytest.fixture(scope="class")
    def products(self):
        return operand_products()

    @pytest.fixture(scope="class")
    def poly(self, products):
        return products[0]

    def results(self, poly, samples, dtype):
        plan = SamplePlan(seed=21, samples=samples, n=3)
        z = sample_coordinates(plan)
        at_point = poly.evaluate([0.3 - 1.2j, 0.7j, -1.1])
        return z, evaluate_polynomial(poly, as_dtype(z, dtype)), estimate(poly, plan), at_point

    def test_block_size_changes_no_bit(self, monkeypatch, products):
        cases = itertools.product(
            products,
            [1, 3],
            [np.complex128, np.float64, np.complex64],
            [(300, (1, 3)), (BLOCK + 2, (BLOCK - 1, BLOCK, BLOCK + 1))],
        )
        point = np.array([[0.3 - 1.2j, 0.7j, -1.1]])
        for poly, workers, dtype, (samples, blocks) in cases:
            monkeypatch.undo()
            monkeypatch.setattr(montecarlo, "_WORKERS", workers)
            z, values, est, at_point = self.results(poly, samples, dtype)
            assert_same_bits(values, reference_evaluate_polynomial(poly, as_dtype(z, dtype)))
            assert at_point == complex(reference_evaluate_polynomial(poly, point)[0])
            # With the table budget lifted, _BLOCK alone sets the rows per block.
            monkeypatch.setattr(montecarlo, "_TABLE_BYTES", 1 << 40)
            for block in blocks:
                monkeypatch.setattr(montecarlo, "_BLOCK", block)
                z2, values2, est2, at_point2 = self.results(poly, samples, dtype)
                assert_same_bits(z2, z)
                assert_same_bits(values2, values)
                assert est2 == est
                assert at_point2 == at_point

    def test_table_budget_sets_the_rows(self, monkeypatch, poly):
        """A budget below one row's bytes evaluates one row at a time."""
        z, values, _, _ = self.results(poly, 1000, np.complex128)
        rows, copyto = [], np.copyto
        monkeypatch.setattr(montecarlo, "_TABLE_BYTES", 1)
        monkeypatch.setattr(np, "copyto", lambda dst, src: (rows.append(src.shape[1]), copyto(dst, src)))
        assert_same_bits(montecarlo.evaluate_polynomial(poly, z), values)
        assert rows == [1] * 1000


class TestOperands:
    """Products and conjugates are evaluated from their operands' values."""

    def products(self):
        yield from operand_products()
        for f, _ in suites._mc_cases(50, 2, 110, 3, 3):  # the Monte Carlo battery's squares
            p = expand(f)
            yield p * p.conjugate()

    def test_within_tolerance_of_the_expansion(self):
        """Every row of a product lies within 1e-12 times its expansion's
        sum of term moduli of that expansion evaluated term by term."""
        for sq in self.products():
            z = sample_coordinates(SamplePlan(seed=17, samples=500, n=sq.n))
            expanded = ChaosPolynomial(sq.n, sq.terms)
            assert expanded._parts is None
            bound = 1e-12 * term_moduli_sum(expanded, z)
            assert np.all(np.abs(evaluate_polynomial(sq, z) - termwise_evaluate_polynomial(expanded, z)) <= bound)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf), complex(math.nan, 1.0)])
    def test_non_finite_coefficient(self, bad):
        """A NaN or inf coefficient of p reaches the estimate of |p|^2 and
        mc_sigma of a kernel with that entry."""
        plan = SamplePlan(seed=3, samples=100, n=2)
        p = ChaosPolynomial(2, {((1, 0), (0, 1)): 0.5, ((0, 1), (0, 0)): bad, ((0, 0), (0, 0)): 1.0})
        est = estimate(p * p.conjugate(), plan)
        assert not all(map(math.isfinite, (est.value.real, est.value.imag, est.stderr)))
        coeffs = random_kernel(1, 1, 2, np.random.default_rng(8)).coeffs.copy()
        coeffs[0, 1] = bad
        est, target, sigma = suites.mc_sigma(Kernel(1, 1, 2, coeffs), plan)
        assert not all(map(math.isfinite, (est.value.real, est.value.imag, est.stderr)))
        assert math.isnan(sigma)

    def test_long_power_chain(self):
        """1,500 nested products are walked without recursion."""
        p = ChaosPolynomial.constant(1.0, 1) ** 1500
        z = sample_coordinates(SamplePlan(seed=5, samples=300, n=1))
        assert np.array_equal(evaluate_polynomial(p, z), np.ones(300, dtype=np.complex128))

    def test_samples_are_not_kept_alive(self):
        """No reference cycle holds the samples: with the cyclic collector
        off, they are freed as soon as the caller drops them."""
        sq = operand_products()[0]
        z = sample_coordinates(SamplePlan(seed=5, samples=300, n=3))
        ref = weakref.ref(z)
        enabled = gc.isenabled()
        gc.disable()
        try:
            evaluate_polynomial(sq, z)
            del z
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_planted_product_defect_fails_the_battery(self, monkeypatch):
        """The Monte Carlo side does not read a product's coefficients, so a
        product that scales them by 1.05 moves only the oracle value, and
        the battery fails (it passes without the defect).  Eight kernels at
        10,000 samples are the smallest counts tried that separate the two."""
        run = functools.partial(suites.mc_isometry_report, kernels=8, samples=10_000, seed=110)
        assert run().passed
        values = chaos._product_values

        def scaled(x, y, group):
            re, im = values(x, y, group)
            return re * 1.05, im * 1.05

        monkeypatch.setattr(chaos, "_product_values", scaled)
        report = run()
        assert not report.passed and report.metadata["worst_sigma"] > 4.0


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
