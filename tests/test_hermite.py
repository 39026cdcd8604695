"""Complex Hermite layer: construction, evaluation, product expansion."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from complexchaos import hermite, suites
from complexchaos.chaos import ChaosPolynomial, hermite_to_chaos
from complexchaos.oracle import pair_expectation


def closed_form_terms(m: int, n: int, rho) -> dict:
    """Independent closed form: sum over k of (-1)^k k! C(m,k) C(n,k) rho^k
    z^(m-k) zbar^(n-k)."""
    out = {}
    for k in range(min(m, n) + 1):
        coeff = (-1) ** k * math.factorial(k) * math.comb(m, k) * math.comb(n, k)
        out[(m - k, n - k)] = coeff * rho**k
    return out


class TestBuild:
    def test_constant(self):
        for rho in (1, 2, 0.7):
            assert dict(hermite.build(0, 0, rho).terms) == {(0, 0): 1}

    def test_first_mixed(self):
        for rho in (1, 3, Fraction(1, 2)):
            assert dict(hermite.build(1, 1, rho).terms) == {(1, 1): 1, (0, 0): -rho}

    def test_pure_powers(self):
        assert dict(hermite.build(2, 0, 5).terms) == {(2, 0): 1}
        assert dict(hermite.build(0, 3, 2).terms) == {(0, 3): 1}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.sampled_from([1, 2, 3, Fraction(1, 2)]))
    def test_matches_closed_form(self, m, n, rho):
        assert dict(hermite.build(m, n, rho).terms) == closed_form_terms(m, n, rho)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5))
    def test_degree_structure(self, m, n):
        h = hermite.build(m, n, 2)
        assert h.terms[(m, n)] == 1
        for (a, b), c in h.terms.items():
            assert a - b == m - n
            assert a + b <= m + n

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5))
    def test_conjugation_swaps_degrees(self, m, n):
        h = hermite.build(m, n, 1)
        swapped = {(b, a): c for (a, b), c in h.terms.items()}
        assert swapped == dict(hermite.build(n, m, 1).terms)

    def test_integer_rho_gives_integer_coefficients(self):
        h = hermite.build(3, 2, 2)
        assert all(isinstance(c, int) for c in h.terms.values())

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            hermite.build(-1, 0, 1)
        with pytest.raises(ValueError):
            hermite.build(0, 0, 0)


class TestEvaluate:
    def test_examples(self):
        assert hermite.evaluate(hermite.build(1, 1, 1), 0j) == pytest.approx(-1.0)
        for rho in (1, 2):
            z = 0.3 - 1.2j
            assert hermite.evaluate(hermite.build(1, 0, rho), z) == pytest.approx(z)
            assert hermite.evaluate(hermite.build(0, 0, rho), z) == pytest.approx(1.0)

    def test_polynomial_evaluation(self):
        z = 1.5 + 0.5j
        value = hermite.evaluate(hermite.build(1, 1, 1), z)
        assert value == pytest.approx(z * z.conjugate() - 1)


class TestProductTable:
    def test_mixed_pair(self):
        assert hermite.hermite_product(1, 0, 0, 1) == {(1, 1): 1, (0, 0): 1}

    def test_empty_contraction_range(self):
        assert hermite.hermite_product(1, 0, 1, 0) == {(2, 0): 1}

    def test_accumulated_pairings_match_multiplication(self):
        # derived by multiplying the polynomials, not by trusting a table
        lhs = hermite_to_chaos(hermite.build(1, 1, 1), 0, 1)
        lhs = lhs * lhs
        table = hermite.hermite_product(1, 1, 1, 1)
        rhs = None
        for (m, n), w in table.items():
            piece = hermite_to_chaos(hermite.build(m, n, 1), 0, 1).scaled(w)
            rhs = piece if rhs is None else rhs + piece
        assert lhs.max_diff(rhs) == 0.0
        assert table == {(2, 2): 1, (1, 1): 2, (0, 0): 1}

    def test_identity_certified_exactly_up_to_cap(self):
        assert hermite.certify_product_formula(8, rho=1) == 0.0

    def test_identity_fails_at_other_normalizations(self):
        assert hermite.certify_product_formula(2, rho=2) > 0.5


class TestNegativeControl:
    """``hermite_product_report``'s perturbation is added to one coefficient
    of the exact product probe, so the report fails by exactly its size."""

    @pytest.mark.parametrize("perturbation", [0.5, -0.25, 2**-10, 3.0])
    def test_residual_is_the_perturbation(self, perturbation):
        report = suites.hermite_product_report(max_total=2, perturbation=perturbation)
        assert report.residual == abs(perturbation)
        assert not report.passed

    @pytest.mark.parametrize("perturbation", [math.nan, math.inf, -math.inf])
    def test_non_finite_perturbation_fails(self, perturbation):
        report = suites.hermite_product_report(max_total=2, perturbation=perturbation)
        assert math.isnan(report.residual)
        assert not report.passed


class TestResolveRho:
    def test_certifies_one(self):
        assert hermite.resolve_rho() == 1

    def test_certification_grid_is_exact(self):
        assert hermite.resolve_rho(max_total=8) == 1


class TestOrthogonality:
    @pytest.mark.parametrize("rho", [1, 2])
    def test_oracle_orthogonality_scaled(self, rho):
        # E[z zbar] = rho realized as z = sqrt(rho) * w with w standard
        scale = math.sqrt(rho)
        members = {}
        for m in range(4):
            for n in range(4 - m):
                poly = hermite_to_chaos(hermite.build(m, n, rho), 0, 1)
                members[(m, n)] = ChaosPolynomial(
                    1, {k: c * scale ** (k[0][0] + k[1][0]) for k, c in poly.terms.items()}
                )
        for (m, n), left in members.items():
            for (mp, np_), right in members.items():
                value = pair_expectation(left, right.conjugate())
                target = 0.0
                if (m, n) == (mp, np_):
                    target = math.factorial(m) * math.factorial(n) * rho ** (m + n)
                assert value.real == pytest.approx(target, abs=1e-9 * max(1, target))
                assert abs(value.imag) < 1e-9


class TestFormatting:
    def test_readable_output(self):
        text = hermite.format_polynomial(hermite.build(2, 2, 1))
        assert text == "z^2*zb^2 - 4*z*zb + 2"
        assert hermite.format_polynomial(hermite.build(0, 0, 1)) == "1"
