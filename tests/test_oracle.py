"""Wick-rule oracle: monomial moments, linear extension, exact sums,
quadrature check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from complexchaos import ChaosPolynomial, Kernel, expand, oracle, random_kernel
from complexchaos.oracle import (
    MomentQuery,
    exact_sum,
    expectation,
    monomial_expectation,
    pair_expectation,
    quadrature_monomial_expectation,
)


class TestMonomialRule:
    def test_unit_covariance(self):
        assert monomial_expectation(MomentQuery((1,), (1,))) == 1

    def test_exponential_second_moment(self):
        assert monomial_expectation(MomentQuery((2,), (2,))) == 2

    def test_cross_terms_vanish(self):
        assert monomial_expectation(MomentQuery((1, 0), (0, 1))) == 0

    def test_factorial_growth(self):
        assert monomial_expectation(MomentQuery((4, 2), (4, 2))) == 24 * 2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            MomentQuery((1,), (1, 0))


class TestExpectation:
    def test_centered_chaos(self):
        p = expand(Kernel.basis(1, 1, (0, 0), 1))  # z zbar - 1
        assert expectation(p) == 0

    def test_isometry_value(self):
        p = expand(Kernel.basis(1, 1, (0, 0), 1))
        assert expectation(p * p.conjugate()) == pytest.approx(1.0)

    def test_constant(self):
        assert expectation(ChaosPolynomial.constant(3 - 4j, 2)) == 3 - 4j

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_conjugation_commutes(self, seed):
        rng = np.random.default_rng(seed)
        from complexchaos import random_kernel

        p = expand(random_kernel(2, 1, 2, rng))
        assert expectation(p.conjugate()) == pytest.approx(
            expectation(p).conjugate(), abs=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_positivity(self, seed):
        rng = np.random.default_rng(seed)
        from complexchaos import random_kernel

        p = expand(random_kernel(1, 2, 3, rng))
        value = expectation(p * p.conjugate())
        assert value.real >= -1e-12
        assert abs(value.imag) < 1e-12


class TestPairExpectation:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_agrees_with_materialized_product(self, seed):
        rng = np.random.default_rng(seed)
        from complexchaos import random_kernel

        p = expand(random_kernel(1, 1, 2, rng))
        q = expand(random_kernel(2, 0, 2, rng))
        direct = expectation(p * q)
        assert pair_expectation(p, q) == pytest.approx(direct, abs=1e-12)

    def test_variable_count_guard(self):
        with pytest.raises(ValueError):
            pair_expectation(ChaosPolynomial.constant(1, 1), ChaosPolynomial.constant(1, 2))


    def test_empty_join_is_zero(self):
        left = expand(Kernel.basis(1, 0, (0,), 1))
        assert pair_expectation(left, left) == 0j

    def test_join_blocks_do_not_change_the_sum(self, monkeypatch):
        rng = np.random.default_rng(5)
        poly = expand(random_kernel(2, 2, 3, rng))
        sq = poly * poly.conjugate()
        whole = pair_expectation(sq, sq)
        monkeypatch.setattr(oracle, "_JOIN_BLOCK", 777)
        assert pair_expectation(sq, sq) == whole


def fsum_or_nan(values) -> float:
    """What ``exact_sum`` promises: math.fsum, or NaN where fsum raises."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


def same_float(a: float, b: float) -> bool:
    return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))


LENGTHS = [1, 999, 1000, 1001, 2048]


def adversarial_cases() -> dict[str, list[float]]:
    """Value lists that stress rounding, range and sign; each is padded to
    every length in LENGTHS by cancelling pairs or zeros."""
    tiny = 5e-324
    return {
        "tie-to-even-down": [1.0, 2.0**-53],
        "tie-to-even-up": [1.0 + 2.0**-52, 2.0**-53],
        "just-above-tie": [1.0, 2.0**-53, tiny],
        "just-below-tie": [1.0, 2.0**-53, -tiny],
        "many-small-ties": [1.0] + [2.0**-54] * 2 + [2.0**-60] * 64,
        "subnormals": [tiny * k for k in range(-7, 40)],
        "subnormal-result": [2.0**-1022, -(2.0**-1022) + tiny * 3, tiny],
        "total-cancellation": [1e300, 1.0, -1e300, -1.0],
        "spread-over-1000-bits": [2.0**500, 2.0**-520, -(2.0**500), 2.0**-600, 1.0],
        "huge-but-summable": [2.0**1008, 2.0**1008, -(2.0**960)],
        "near-2**1023": [2.0**1023 * 1.5, 2.0**1023 * 1.5],
        "near-2**1023-cancelling": [2.0**1023, -(2.0**1023), 1.0],
        "nan": [1.0, math.nan],
        "inf": [1.0, math.inf],
        "inf-minus-inf": [math.inf, -math.inf],
        "minus-inf": [-math.inf, 2.0],
    }


def padded(values: list[float], length: int, rng) -> np.ndarray:
    """``values`` followed by cancelling pairs of random magnitude (or a
    zero), shuffled, ``length`` values in all (or the values themselves if
    they are longer)."""
    extra = max(length - len(values), 0)
    pairs = rng.standard_normal(extra // 2) * 2.0 ** rng.integers(-40, 40, extra // 2)
    fill = list(pairs) + list(-pairs) + [0.0] * (extra % 2)
    out = np.array(values + fill)
    rng.shuffle(out)
    return out


class TestExactSum:
    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("name", sorted(adversarial_cases()))
    def test_adversarial_cases_equal_fsum(self, name, length):
        rng = np.random.default_rng(length)
        values = padded(adversarial_cases()[name], length, rng)
        expected = fsum_or_nan(values.tolist())
        assert same_float(exact_sum(values), expected)
        assert same_float(exact_sum(values.tolist()), expected)

    @pytest.mark.parametrize("length", LENGTHS)
    def test_all_negative_zeros_equal_fsum(self, length):
        values = np.full(length, -0.0)
        assert same_float(exact_sum(values), math.fsum(values.tolist()))

    def test_array_path_is_taken(self):
        # Not every case above may fall back: these are summed in integers.
        rng = np.random.default_rng(0)
        for name in ("tie-to-even-down", "just-above-tie", "subnormal-result", "spread-over-1000-bits"):
            values = padded(adversarial_cases()[name], 1001, rng)
            total = oracle._array_sum(values)
            assert total is not None and same_float(total, math.fsum(values.tolist()))
        cancelled = oracle._array_sum(padded(adversarial_cases()["total-cancellation"], 1001, rng))
        assert cancelled is not None and cancelled.hex() == "0x0.0p+0"
        for name in ("nan", "inf", "near-2**1023"):
            assert oracle._array_sum(padded(adversarial_cases()[name], 1001, rng)) is None
        assert oracle._array_sum(np.full(1001, -0.0)) is None

    @pytest.mark.parametrize("chunk", [1, 7, 999, 1000, 1 << 21])
    def test_chunk_boundaries(self, monkeypatch, chunk):
        rng = np.random.default_rng(chunk)
        values = rng.standard_normal(2500) * 2.0 ** rng.integers(-1070, 900, 2500) / 4096
        values[:3] = [1.0, 2.0**-53, 5e-324]
        expected = math.fsum(values.tolist())
        monkeypatch.setattr(oracle, "_ARRAY_SUM_CHUNK", chunk)
        assert same_float(exact_sum(values), expected)
        assert same_float(exact_sum(values[::-1].copy()), expected)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
        st.sampled_from(LENGTHS),
        st.integers(0, 2**32 - 1),
    )
    def test_hypothesis_arrays_equal_fsum(self, base, length, seed):
        rng = np.random.default_rng(seed)
        values = np.resize(np.array(base), length) * rng.choice([-1.0, 1.0, 0.5], length)
        assert same_float(exact_sum(values), fsum_or_nan(values.tolist()))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(-1074, 1000), st.integers(0, 1100))
    def test_hypothesis_spreads_equal_fsum(self, seed, low, spread):
        rng = np.random.default_rng(seed)
        exps = rng.integers(low, min(low + spread, 1000) + 1, 1500)
        values = np.ldexp(rng.standard_normal(1500), exps)
        assert same_float(exact_sum(values), fsum_or_nan(values.tolist()))


class TestQuadratureCrossCheck:
    def test_low_degree_agreement(self):
        for a in range(5):
            for b in range(5):
                exact = monomial_expectation(MomentQuery((a,), (b,)))
                approx = quadrature_monomial_expectation(a, b)
                assert abs(approx - exact) <= 1e-8 * max(1.0, abs(exact))
