"""Theorem layer: expansion, product formulas, covariance, independence."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from complexchaos import (
    ChaosPolynomial,
    Kernel,
    KernelSequence,
    VerificationReport,
    asymptotic_diagnostics,
    covariance_squares,
    expand,
    hypercontractivity_check,
    independence_check,
    integral_conjugate,
    isometry_check,
    ito_symmetrize,
    moment_factorization_gap,
    norm,
    product,
    product_check,
    product_conjugated,
    product_conjugated_check,
    random_kernel,
    reversed_conjugate,
)
from complexchaos import hermite, suites
from complexchaos.chaos import coupled_decay_sequences
from complexchaos.oracle import pair_expectation


def key(a, b):
    return (tuple(a), tuple(b))


class TestChaosPolynomial:
    def test_ring_operations(self):
        p = ChaosPolynomial(1, {key((1,), (0,)): 2.0})  # 2 z
        q = ChaosPolynomial(1, {key((0,), (1,)): 1j})  # i zbar
        prod = p * q
        assert prod.terms == {key((1,), (1,)): 2j}
        total = p + p
        assert total.terms == {key((1,), (0,)): 4.0}
        assert (p - p).terms == {}

    def test_conjugation_swaps_exponents(self):
        p = ChaosPolynomial(2, {key((1, 0), (0, 2)): 1 + 2j})
        assert p.conjugate().terms == {key((0, 2), (1, 0)): 1 - 2j}

    def test_evaluate(self):
        p = ChaosPolynomial(2, {key((1, 0), (0, 1)): 2.0})  # 2 z1 zbar2
        z = [1 + 1j, 2 - 1j]
        assert p.evaluate(z) == pytest.approx(2.0 * z[0] * z[1].conjugate())

    def test_variable_count_guard(self):
        with pytest.raises(ValueError):
            ChaosPolynomial.constant(1, 1) * ChaosPolynomial.constant(1, 2)


class TestExpand:
    def test_single_coordinate(self):
        p = expand(Kernel.basis(1, 0, (0,), 2))
        assert p.terms == {key((1, 0), (0, 0)): 1.0}

    def test_diagonal_gets_centered(self):
        p = expand(Kernel.basis(1, 1, (0, 0), 2))
        assert p.terms == {key((1, 0), (1, 0)): 1.0, key((0, 0), (0, 0)): -1.0}

    def test_distinct_cells_factor(self):
        p = expand(Kernel.basis(1, 1, (0, 1), 2))
        assert p.terms == {key((1, 0), (0, 1)): 1.0}

    def test_scalar_kernel(self):
        p = expand(Kernel.scalar(2 - 1j, 3))
        assert p.terms == {key((0, 0, 0), (0, 0, 0)): 2 - 1j}

    def test_linear(self, rng):
        f = random_kernel(2, 1, 2, rng)
        g = random_kernel(2, 1, 2, rng)
        combined = expand(0.5 * f + 2j * g)
        direct = expand(f).scaled(0.5) + expand(g).scaled(2j)
        assert combined.max_diff(direct) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 3))
    def test_blind_to_symmetrization(self, seed, p, q):
        rng = np.random.default_rng(seed)
        f = random_kernel(p, q, 2, rng)
        assert expand(f).max_diff(expand(ito_symmetrize(f))) < 1e-12


class TestIntegralConjugate:
    def test_distinct_cells(self):
        report = integral_conjugate(Kernel.basis(1, 1, (0, 1), 2))
        assert report.passed and report.residual == 0.0

    def test_scalar(self):
        report = integral_conjugate(Kernel.scalar(1 - 2j, 1))
        assert report.passed

    def test_random(self, rng):
        report = integral_conjugate(random_kernel(2, 1, 3, rng))
        assert report.residual <= 1e-12


class TestProductFormula:
    def test_base_case_terms(self):
        f = Kernel.basis(1, 0, (0,), 1)
        g = Kernel.basis(0, 1, (0,), 1)
        terms = product(f, g)
        assert [t.weight for t in terms] == [1, 1]
        orders = {t.kernel.order for t in terms}
        assert orders == {(1, 1), (0, 0)}
        # polynomial identity z zbar = (z zbar - 1) + 1
        assert product_check(f, g).residual == 0.0

    def test_empty_contraction_range_single_term(self):
        f = Kernel.basis(1, 0, (0,), 2)
        g = Kernel.basis(1, 0, (1,), 2)
        terms = product(f, g)
        assert len(terms) == 1
        assert terms[0].weight == 1
        assert terms[0].kernel.order == (2, 0)

    def test_random_pair_four_terms(self, rng):
        f = random_kernel(1, 1, 3, rng)
        g = random_kernel(1, 1, 3, rng)
        assert len(product(f, g)) == 4
        assert product_check(f, g).residual <= 1e-9

    def test_weights_match_binomials(self):
        rng = np.random.default_rng(3)
        f = random_kernel(2, 1, 2, rng)
        g = random_kernel(1, 2, 2, rng)
        weights = [t.weight for t in product(f, g)]
        expected = []
        for i in range(min(2, 2) + 1):
            for j in range(min(1, 1) + 1):
                expected.append(
                    math.comb(2, i) * math.comb(2, i) * math.comb(1, j) * math.comb(1, j)
                    * math.factorial(i) * math.factorial(j)
                )
        assert weights == expected

    def test_cap_guard(self):
        with pytest.raises(ValueError):
            product(Kernel.zeros(3, 2, 2), Kernel.zeros(2, 2, 2))

    def test_cell_guard(self):
        with pytest.raises(ValueError):
            product(Kernel.zeros(1, 0, 2), Kernel.zeros(1, 0, 3))


class TestProductConjugated:
    def test_modulus_of_first_chaos(self):
        f = Kernel.basis(1, 0, (0,), 1)
        terms = product_conjugated(f, f)
        assert {t.kernel.order for t in terms} == {(1, 1), (0, 0)}
        assert product_conjugated_check(f, f).residual == 0.0

    def test_disjoint_supports_single_term(self):
        f = Kernel.basis(1, 0, (0,), 2)
        g = Kernel.basis(0, 1, (1,), 2)
        terms = product_conjugated(f, g)
        survivors = [t for t in terms if norm(t.kernel) > 1e-12]
        assert len(survivors) == 1
        assert survivors[0].kernel.order == (2, 0)
        assert product_conjugated_check(f, g).residual <= 1e-12

    def test_random_orders(self, rng):
        f = random_kernel(2, 0, 3, rng)
        g = random_kernel(1, 1, 3, rng)
        assert product_conjugated_check(f, g).residual <= 1e-9

    def test_matches_reversed_conjugate_route(self, rng):
        f = random_kernel(1, 1, 2, rng)
        g = random_kernel(2, 0, 2, rng)
        lhs = expand(f) * expand(g).conjugate()
        rhs = ChaosPolynomial.zero(2)
        for term in product(f, reversed_conjugate(g)):
            rhs = rhs + expand(term.kernel).scaled(term.weight)
        assert lhs.max_diff(rhs) <= 1e-12 * max(1.0, lhs.max_abs())


class TestIsometry:
    def test_unit_examples(self):
        rep = isometry_check(Kernel.basis(1, 1, (0, 1), 2))
        assert rep.metadata["second_moment"] == pytest.approx(1.0)
        rep = isometry_check(Kernel.basis(2, 0, (0, 1), 2))
        assert rep.metadata["second_moment"] == pytest.approx(1.0)
        assert rep.metadata["target"] == pytest.approx(1.0)

    def test_zero_kernel(self):
        rep = isometry_check(Kernel.zeros(2, 1, 2))
        assert rep.passed and rep.metadata["second_moment"] == 0.0

    def test_order_orthogonality(self, rng):
        left = expand(random_kernel(2, 1, 3, rng))
        right = expand(random_kernel(1, 1, 3, rng))
        assert abs(pair_expectation(left, right.conjugate())) < 1e-12


class TestCovariance:
    def test_disjoint_supports_zero(self):
        f = Kernel.basis(1, 1, (0, 0), 2)
        g = Kernel.basis(1, 1, (1, 1), 2)
        comp = covariance_squares(f, g)
        assert comp.formula == pytest.approx(0.0, abs=1e-12)
        assert comp.oracle == pytest.approx(0.0, abs=1e-12)

    def test_variance_of_exponential(self):
        f = Kernel.basis(1, 0, (0,), 1)
        comp = covariance_squares(f, f)
        assert comp.formula == pytest.approx(1.0)
        assert comp.oracle == pytest.approx(1.0)

    def test_squared_centered_exponential(self):
        # Var((W-1)^2) = 8 for a unit-rate exponential W; the same-chaos
        # cross terms contribute 2, so term-by-term summation would give 6.
        f = Kernel.basis(1, 1, (0, 0), 1)
        comp = covariance_squares(f, f)
        assert comp.formula == pytest.approx(8.0)
        assert comp.oracle == pytest.approx(8.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_formula_matches_oracle_and_is_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        f = random_kernel(1, 1, 3, rng)
        g = random_kernel(1, 1, 3, rng)
        comp = covariance_squares(f, g)
        assert comp.report.residual <= 1e-9
        assert comp.formula >= -1e-12

    def test_report_records_variant(self):
        comp = covariance_squares(Kernel.zeros(1, 0, 1), Kernel.zeros(1, 0, 1))
        assert "proof-step" in str(comp.report.metadata["variant"])


class TestIndependence:
    def test_disjoint_pass(self):
        f = Kernel.basis(1, 1, (0, 0), 2)
        g = Kernel.basis(1, 1, (1, 1), 2)
        rep = independence_check(f, g)
        assert rep.passed
        assert rep.residual == 0.0
        assert rep.metadata["covariance_oracle"] == pytest.approx(0.0, abs=1e-12)

    def test_overlapping_fail(self):
        f = Kernel.basis(1, 1, (0, 0), 2)
        rep = independence_check(f, f)
        assert not rep.passed
        assert rep.residual == pytest.approx(1.0)
        assert rep.metadata["covariance_oracle"] > 1e-3

    def test_first_chaos_with_itself(self):
        f = Kernel.basis(1, 0, (0,), 1)
        rep = independence_check(f, f)
        assert not rep.passed
        # only the reversed-conjugate pairing is admissible
        assert rep.metadata["with-kernel-10"] == 0.0
        assert rep.metadata["with-reversed-10"] == pytest.approx(1.0)

    def test_degenerate_orders_rejected(self):
        with pytest.raises(ValueError):
            independence_check(Kernel.scalar(1.0, 2), Kernel.basis(1, 0, (0,), 2))

    def test_criterion_pass_implies_moment_factorization(self, rng):
        f = random_kernel(2, 0, 3, rng)
        arr = np.zeros((3, 3), dtype=complex)
        arr[:, :] = f.coeffs
        arr[2, :] = 0.0
        arr[:, 2] = 0.0
        f = Kernel(2, 0, 3, arr)  # supported on cells {0, 1}
        g = Kernel.basis(1, 1, (2, 2), 3)  # supported on cell {2}
        rep = independence_check(f, g)
        assert rep.passed
        assert moment_factorization_gap(f, g, 6) <= 1e-9


class TestHypercontractivity:
    def test_first_chaos_closed_form(self):
        rep = hypercontractivity_check(Kernel.basis(1, 0, (0,), 1))
        assert rep.metadata["l4"] == pytest.approx(2.0**0.25)
        assert rep.metadata["l2_bound"] == pytest.approx(math.sqrt(3.0))
        assert rep.residual == 0.0

    def test_centered_exponential_closed_form(self):
        rep = hypercontractivity_check(Kernel.basis(1, 1, (0, 0), 1))
        assert rep.metadata["l4"] == pytest.approx(9.0**0.25)
        assert rep.metadata["l2_bound"] == pytest.approx(3.0)
        assert rep.residual == 0.0

    def test_zero_kernel(self):
        rep = hypercontractivity_check(Kernel.zeros(1, 1, 2))
        assert rep.passed and rep.residual == 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(0, 2))
    def test_random_kernels(self, seed, p, q):
        rng = np.random.default_rng(seed)
        rep = hypercontractivity_check(random_kernel(p, q, 2, rng))
        assert rep.residual == 0.0


class TestMomentFactorization:
    def test_disjoint_factorizes(self):
        f = Kernel.basis(1, 1, (0, 0), 2)
        g = Kernel.basis(1, 1, (1, 1), 2)
        assert moment_factorization_gap(f, g, 6) <= 1e-12

    def test_dependent_pair_has_gap(self):
        f = Kernel.basis(1, 1, (0, 0), 1)
        assert moment_factorization_gap(f, f, 4) > 1.0


class TestAsymptoticDiagnostics:
    def test_fixed_disjoint_sequences_are_null(self):
        f = KernelSequence("a", tuple(Kernel.basis(1, 1, (0, 0), 2) for _ in range(4)))
        g = KernelSequence("b", tuple(Kernel.basis(1, 1, (1, 1), 2) for _ in range(4)))
        rows = asymptotic_diagnostics([f, g])
        for row in rows:
            for pair in row.pairs:
                assert pair.max_contraction_norm == 0.0
                assert abs(pair.covariance) < 1e-12

    def test_coupled_decay_closed_forms(self):
        first, second = coupled_decay_sequences(6)
        rows = asymptotic_diagnostics([first, second])
        for row in rows:
            n = row.index + 1
            worst_norm = max(p.max_contraction_norm for p in row.pairs)
            worst_cov = max(abs(p.covariance) for p in row.pairs)
            assert worst_norm == pytest.approx(1.0 / n, rel=1e-12)
            assert worst_cov == pytest.approx(8.0 / n**2, rel=1e-9)
        # bounded second moments, reported not enforced
        for row in rows:
            assert row.second_moments[0] == pytest.approx(1.0)
            assert row.second_moments[1] <= 2.0 + 1e-9

    def test_moment_gap_decays(self):
        first, second = coupled_decay_sequences(8)
        gaps = [
            moment_factorization_gap(first.entries[t], second.entries[t], 4)
            for t in range(8)
        ]
        assert all(b <= a + 1e-10 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < gaps[0]

    def test_shape_validation(self):
        f = KernelSequence("a", (Kernel.basis(1, 1, (0, 0), 2),))
        g = KernelSequence("b", (Kernel.basis(1, 1, (0, 0), 3),))
        with pytest.raises(ValueError):
            asymptotic_diagnostics([f, g])
        with pytest.raises(ValueError):
            asymptotic_diagnostics([f])


class TestKernelSequence:
    def test_homogeneity_enforced(self):
        with pytest.raises(ValueError):
            KernelSequence("bad", (Kernel.zeros(1, 0, 2), Kernel.zeros(0, 1, 2)))
        with pytest.raises(ValueError):
            KernelSequence("empty", ())


class TestVerificationReport:
    def test_pass_iff_within_tolerance(self):
        assert VerificationReport("x", 1e-10, 1e-9).passed
        assert not VerificationReport("x", 1e-8, 1e-9).passed

    def test_serialization(self):
        body = VerificationReport("x", 0.0, 1e-9, {"cells": 2}).to_dict()
        assert body == {
            "name": "x",
            "residual": 0.0,
            "tolerance": 1e-9,
            "pass": True,
            "metadata": {"cells": 2},
        }

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            VerificationReport("x", 0.0, 0.0)


class TestNonFiniteResiduals:
    """A NaN anywhere in a fold fails the report instead of being dropped."""

    @pytest.mark.parametrize("position", [0, 3])
    @pytest.mark.parametrize(
        "check, grid",
        [
            ("isometry_check", suites.isometry_grid_report),
            ("product_check", suites.product_grid_report),
            ("hypercontractivity_check", suites.hypercontractivity_grid_report),
            pytest.param(
                "product_conjugated_check",
                functools.partial(suites.product_grid_report, conjugated=True),
                id="product_conjugated_check-product_grid_report_conjugated",
            ),
            ("integral_conjugate", suites.conjugate_lemma_report),
        ],
    )
    def test_nan_check_fails_grid(self, monkeypatch, check, grid, position):
        real = getattr(suites, check)
        calls = []

        def one_nan(*args, **kwargs):
            calls.append(None)
            report = real(*args, **kwargs)
            if len(calls) == position + 1:
                return dataclasses.replace(report, residual=math.nan)
            return report

        monkeypatch.setattr(suites, check, one_nan)
        report = grid(max_total=2, max_cells=2, seed=5)
        assert len(calls) > position
        assert not report.passed

    def test_nan_sigma_fails_mc_battery(self, monkeypatch):
        # One non-finite kernel of 50 is not forgiven by the 95% rule.
        real = suites.mc_sigma
        calls = []

        def one_nan(*args):
            calls.append(None)
            est, target, sigma = real(*args)
            return est, target, math.nan if len(calls) == 17 else sigma

        assert suites.mc_isometry_report(kernels=50, samples=200).passed
        monkeypatch.setattr(suites, "mc_sigma", one_nan)
        report = suites.mc_isometry_report(kernels=50, samples=200)
        assert len(calls) == 50
        assert report.metadata["fraction_within"] == 0.98
        assert math.isnan(report.residual)
        assert not report.passed

    def test_mc_battery_takes_the_top_seed(self):
        # The plan seeds seed + 1000 + t wrap around 2**64 instead of raising.
        report = suites.mc_isometry_report(kernels=2, samples=200, seed=2**64 - 1)
        assert report.metadata["seed"] == 2**64 - 1

    def test_nan_kernel_fails_hypercontractivity(self):
        f = Kernel.from_entries(1, 0, 2, {(0,): math.nan})
        assert not hypercontractivity_check(f).passed


def parent_grid_loop(seed, max_total, width, max_cells, trials, skip_equal=False):
    """The nested loop each grid battery wrote out before sharing ``_grid``."""
    rng = np.random.default_rng(seed)
    drawn = []
    for order in hermite.order_tuples(max_total, width):
        if skip_equal and order[:2] == order[2:]:
            continue
        for t in range(trials):
            n = 1 + t % max_cells
            if width == 2:
                p, q = order
                drawn.append((random_kernel(p, q, n, rng),))
            else:
                a, b, c, d = order
                f = random_kernel(a, b, n, rng)
                g = random_kernel(c, d, n, rng)
                drawn.append((f, g))
    return drawn


class TestGrid:
    """``suites._grid`` draws the same kernels, in the same order, as the
    per-battery loops it replaced."""

    @pytest.mark.parametrize(
        "width, skip_equal",
        [(2, False), (4, False), (4, True)],
        ids=["single", "pair", "pair-orthogonality-filter"],
    )
    @pytest.mark.parametrize("max_total, max_cells, trials", [(3, 2, 5), (4, 3, 2)])
    def test_matches_reference_loop(self, width, skip_equal, max_total, max_cells, trials):
        orders = hermite.order_tuples(max_total, width)
        if skip_equal:
            orders = (o for o in orders if o[:2] != o[2:])
        got = list(suites._grid(11, orders, max_cells, trials))
        want = parent_grid_loop(11, max_total, width, max_cells, trials, skip_equal)
        assert len(got) == len(want)
        for mine, theirs in zip(got, want):
            assert [(k.p, k.q, k.n) for k in mine] == [(k.p, k.q, k.n) for k in theirs]
            for k, r in zip(mine, theirs):
                np.testing.assert_array_equal(k.coeffs, r.coeffs)
        # the cell count cycles through 1..max_cells within each order tuple
        assert [kernels[0].n for kernels in got[:trials]] == [
            1 + t % max_cells for t in range(trials)
        ]

    def test_lazy(self):
        grid = suites._grid(3, hermite.order_tuples(8, 2), 8, 10**9)
        (first,) = next(grid)
        (second,) = next(grid)
        assert (first.order, first.n, second.n) == ((0, 0), 1, 2)
