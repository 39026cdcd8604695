"""Seeded certification batteries.

Each function runs one identity over a deterministic grid of random kernels
and folds the worst case into a single ``VerificationReport`` with
``worst_of``.  These are the building blocks of the command line selftest and
of the acceptance tests; all randomness is drawn from generators seeded per
battery, so reports are reproducible byte for byte.  The seven grid batteries
(expansion symmetrization, conjugate lemma, product, isometry, orthogonality,
covariance and hypercontractivity) all draw their kernels from ``_grid``,
which fixes the order in which the seeded random generator is consumed.
"""

from __future__ import annotations

import math
import os
import pickle
from typing import Iterable, Iterator

import numpy as np

from . import hermite, montecarlo, oracle
from .chaos import (
    COVARIANCE_VARIANT,
    ChaosPolynomial,
    IDENTITY_TOL,
    STRUCTURAL_TOL,
    VerificationReport,
    worst_of,
    coupled_decay_sequences,
    asymptotic_diagnostics,
    covariance_squares,
    expand,
    hermite_to_chaos,
    hypercontractivity_check,
    independence_check,
    integral_conjugate,
    isometry_check,
    moment_factorization_gap,
    product_check,
    product_conjugated_check,
)
from .kernels import (
    ContractionSpec,
    Kernel,
    contract,
    ito_symmetrize,
    norm,
    ordinary_symmetrize,
    random_kernel,
    reversed_conjugate,
)

__all__ = [
    "asymptotic_decay_reports",
    "conjugate_lemma_report",
    "covariance_grid_reports",
    "expand_symmetrization_report",
    "hermite_normalization_report",
    "hermite_orthogonality_report",
    "hermite_product_report",
    "hypercontractivity_grid_report",
    "independence_counterexample_report",
    "independence_disjoint_report",
    "independence_implication_report",
    "isometry_grid_report",
    "kernel_invariants_report",
    "mc_isometry_report",
    "mc_sigma",
    "oracle_quadrature_report",
    "orthogonality_grid_report",
    "product_grid_report",
    "selftest_reports",
]

DEFAULT_SEED = 42


def _grid(
    seed: int, orders: Iterable[tuple[int, ...]], max_cells: int, trials: int
) -> Iterator[tuple[Kernel, ...]]:
    """Kernels of a seeded certification grid, drawn lazily.

    For each order tuple (a, b) or (a, b, c, d) and each trial t, yields one
    random kernel per (p, q) pair of the tuple, all on 1 + t % max_cells
    cells, drawn in that order from a single generator seeded with ``seed``.
    """
    rng = np.random.default_rng(seed)
    for order in orders:
        pairs = list(zip(order[::2], order[1::2]))
        for t in range(trials):
            n = 1 + t % max_cells
            yield tuple(random_kernel(p, q, n, rng) for p, q in pairs)


# -- hermite layer -------------------------------------------------------------


def hermite_normalization_report(max_total: int = 6) -> VerificationReport:
    """Certify the variance normalization at which the product expansion of
    the complex Hermite family is exact (it is rho = 1, mechanically), by the
    largest coefficient ``hermite.resolve_rho`` would raise on."""
    probe, grid = hermite.normalization_residuals(max_total)
    return VerificationReport(
        name="hermite-normalization",
        residual=worst_of(grid, *(float(abs(c)) for c in probe.values())),
        tolerance=STRUCTURAL_TOL,
        metadata={"certified_rho": 1, "max_total_degree": max_total},
    )


def hermite_product_report(
    max_total: int = 8, perturbation: float = 0.0
) -> VerificationReport:
    """Exact polynomial certification of the Hermite product expansion.

    ``perturbation`` is a negative-control hook: it is added to one expansion
    coefficient so the comparison must fail by that amount.
    """
    residual = hermite.certify_product_formula(max_total, rho=1)
    if perturbation:
        lhs = hermite_to_chaos(hermite.build(1, 1, 1), 0, 1)
        lhs = lhs * lhs
        rhs = ChaosPolynomial.zero(1)
        for (m, n), w in hermite.hermite_product(1, 1, 1, 1).items():
            rhs = rhs + hermite_to_chaos(hermite.build(m, n, 1), 0, 1).scaled(w)
        rhs = rhs + hermite_to_chaos(hermite.build(1, 1, 1), 0, 1).scaled(perturbation)
        residual = worst_of(residual, lhs.max_diff(rhs))
    return VerificationReport(
        name="hermite-product",
        residual=residual,
        tolerance=IDENTITY_TOL,
        metadata={
            "certified_rho": 1,
            "max_total_degree": max_total,
            "injected_perturbation": perturbation,
        },
    )


def _gram_value(left: hermite.HermitePolynomial, right: hermite.HermitePolynomial) -> int:
    """E[left * conj(right)] in integers, by the oracle's moment rule."""
    return sum(
        x * y * oracle.monomial_expectation(oracle.MomentQuery((a + d,), (b + c,)))
        for (a, b), x in left.terms.items()
        for (c, d), y in right.terms.items()
    )


def hermite_orthogonality_report(
    max_degree: int = 6, tolerance: float = IDENTITY_TOL
) -> VerificationReport:
    """Exact check, by the moment rule, that distinct family members are
    orthogonal and the squared norm of degree (m, n) is m! n! (at rho = 1)."""
    worst = 0.0
    members = [(m, n, hermite.build(m, n, 1)) for m, n in hermite.order_tuples(max_degree, 2)]
    for m, n, left in members:
        for mp, nq, right in members:
            value = _gram_value(left, right)
            target = math.factorial(m) * math.factorial(n) if (m, n) == (mp, nq) else 0.0
            worst = worst_of(worst, abs(value - target) / max(1.0, abs(target)))
    return VerificationReport(
        name="hermite-orthogonality",
        residual=worst,
        tolerance=tolerance,
        metadata={"certified_rho": 1, "max_degree": max_degree},
    )


# -- oracle --------------------------------------------------------------------


def oracle_quadrature_report(
    max_power: int = 4, tolerance: float = 1e-8
) -> VerificationReport:
    """Cross-check the moment rule against 2-D Gauss-Hermite quadrature."""
    worst = 0.0
    for a in range(max_power + 1):
        for b in range(max_power + 1):
            exact = oracle.monomial_expectation(oracle.MomentQuery((a,), (b,)))
            approx = oracle.quadrature_monomial_expectation(a, b)
            worst = worst_of(worst, abs(approx - exact) / max(1.0, abs(exact)))
    return VerificationReport(
        name="oracle-quadrature",
        residual=worst,
        tolerance=tolerance,
        metadata={"max_power": max_power},
    )


# -- kernel algebra --------------------------------------------------------------


def kernel_invariants_report(
    seed: int = DEFAULT_SEED,
    trials: int = 30,
    max_total: int = 6,
    max_cells: int = 4,
) -> VerificationReport:
    """Random-kernel battery for the tensor algebra: idempotent
    symmetrizations, the symmetrization norm inequality, conjugation
    involution, contraction bilinearity and the contraction norm bound."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        p = int(rng.integers(0, max_total + 1))
        q = int(rng.integers(0, max_total + 1 - p))
        n = int(rng.integers(1, max_cells + 1))
        f = random_kernel(p, q, n, rng)
        sym = ito_symmetrize(f)
        osym = ordinary_symmetrize(f)
        worst = worst_of(worst, norm(ito_symmetrize(sym) - sym))
        worst = worst_of(worst, norm(ordinary_symmetrize(osym) - osym))
        worst = worst_of(worst, norm(ito_symmetrize(osym) - osym))
        worst = worst_of(worst, norm(sym) - norm(f))
        flipped = reversed_conjugate(f)
        worst = worst_of(worst, norm(reversed_conjugate(flipped) - f))
        worst = worst_of(worst, abs(norm(flipped) - norm(f)))
        # bilinearity and the norm bound, against an independent partner
        c = int(rng.integers(0, max_total + 1 - p - q))
        d = int(rng.integers(0, max_total + 1 - p - q - c))
        g = random_kernel(c, d, n, rng)
        f2 = random_kernel(p, q, n, rng)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        beta = complex(rng.standard_normal(), rng.standard_normal())
        spec = ContractionSpec(
            int(rng.integers(0, min(p, d) + 1)), int(rng.integers(0, min(q, c) + 1))
        )
        lhs = contract(alpha * f + beta * f2, g, spec)
        rhs = alpha * contract(f, g, spec) + beta * contract(f2, g, spec)
        worst = worst_of(worst, norm(lhs - rhs))
        worst = worst_of(worst, norm(contract(f, g, spec)) - norm(f) * norm(g))
    return VerificationReport(
        name="kernel-invariants",
        residual=worst,
        tolerance=STRUCTURAL_TOL,
        metadata={"seed": seed, "trials": trials, "max_total_order": max_total},
    )


def expand_symmetrization_report(
    seed: int = DEFAULT_SEED, trials: int = 20, max_total: int = 6, max_cells: int = 3
) -> VerificationReport:
    """Expansion is blind to block symmetrization, coefficient by coefficient,
    for random kernels of every order in caps."""
    grid = _grid(seed, hermite.order_tuples(max_total, 2), max_cells, trials)
    diffs = [expand(f).max_diff(expand(ito_symmetrize(f))) for (f,) in grid]
    return VerificationReport(
        name="expand-symmetrization",
        residual=worst_of(0.0, *diffs),
        tolerance=STRUCTURAL_TOL,
        metadata={"seed": seed, "max_total_order": max_total, "trials": trials},
    )


def conjugate_lemma_report(
    seed: int = DEFAULT_SEED, trials: int = 20, max_total: int = 6, max_cells: int = 3
) -> VerificationReport:
    """Conjugate of the expansion vs expansion of the reversed conjugate, for
    random kernels of every order in caps."""
    grid = _grid(seed, hermite.order_tuples(max_total, 2), max_cells, trials)
    return VerificationReport(
        name="conjugate-lemma",
        residual=worst_of(0.0, *(integral_conjugate(f).residual for (f,) in grid)),
        tolerance=STRUCTURAL_TOL,
        metadata={"seed": seed, "max_total_order": max_total, "trials": trials},
    )


# -- product, isometry, orthogonality grids ---------------------------------------


def product_grid_report(
    max_total: int = 6,
    max_cells: int = 3,
    trials: int = 20,
    seed: int = DEFAULT_SEED,
    conjugated: bool = False,
    tolerance: float = IDENTITY_TOL,
) -> VerificationReport:
    """Certify the (plain or conjugated) product formula on every order tuple
    with a+b+c+d <= max_total, ``trials`` seeded random pairs each, cycling
    the cell count through 1..max_cells."""
    check = product_conjugated_check if conjugated else product_check
    grid = _grid(seed, hermite.order_tuples(max_total), max_cells, trials)
    residuals = [check(f, g, tolerance).residual for f, g in grid]
    return VerificationReport(
        name="product-conjugated-grid" if conjugated else "product-grid",
        residual=worst_of(0.0, *residuals),
        tolerance=tolerance,
        metadata={
            "seed": seed,
            "max_total_order": max_total,
            "max_cells": max_cells,
            "trials_per_tuple": trials,
            "checks": len(residuals),
            "certified_rho": 1,
        },
    )


def isometry_grid_report(
    max_total: int = 6,
    max_cells: int = 3,
    trials: int = 20,
    seed: int = DEFAULT_SEED,
    tolerance: float = STRUCTURAL_TOL,
) -> VerificationReport:
    grid = _grid(seed, hermite.order_tuples(max_total, 2), max_cells, trials)
    return VerificationReport(
        name="isometry-grid",
        residual=worst_of(0.0, *(isometry_check(f).residual for (f,) in grid)),
        tolerance=tolerance,
        metadata={"seed": seed, "max_total_order": max_total, "trials": trials},
    )


def orthogonality_grid_report(
    max_total: int = 6,
    max_cells: int = 3,
    trials: int = 20,
    seed: int = DEFAULT_SEED,
    tolerance: float = STRUCTURAL_TOL,
) -> VerificationReport:
    """Expansions of different orders are orthogonal under the oracle."""
    orders = (o for o in hermite.order_tuples(max_total) if o[:2] != o[2:])
    grid = _grid(seed, orders, max_cells, trials)
    overlaps = [abs(oracle.pair_expectation(expand(f), expand(g).conjugate())) for f, g in grid]
    return VerificationReport(
        name="orthogonality-grid",
        residual=worst_of(0.0, *overlaps),
        tolerance=tolerance,
        metadata={"seed": seed, "max_total_order": max_total, "trials": trials},
    )


def covariance_grid_reports(
    max_total: int = 6,
    max_cells: int = 3,
    trials: int = 20,
    seed: int = DEFAULT_SEED,
    tolerance: float = IDENTITY_TOL,
) -> tuple[VerificationReport, VerificationReport]:
    """Covariance-of-squares formula vs oracle over the order grid, plus the
    non-negativity of the formula value."""
    grid = _grid(seed, hermite.order_tuples(max_total), max_cells, trials)
    comparisons = [covariance_squares(f, g, tolerance) for f, g in grid]
    most_negative = worst_of(0.0, *(c.formula for c in comparisons), pick=min)
    identity = VerificationReport(
        name="covariance-grid",
        residual=worst_of(0.0, *(c.report.residual for c in comparisons)),
        tolerance=tolerance,
        metadata={
            "seed": seed,
            "max_total_order": max_total,
            "trials_per_tuple": trials,
            "checks": len(comparisons),
            "variant": COVARIANCE_VARIANT,
        },
    )
    nonnegative = VerificationReport(
        name="covariance-nonnegative",
        residual=worst_of(0.0, -most_negative),
        tolerance=STRUCTURAL_TOL,
        metadata={"seed": seed, "most_negative_formula": most_negative},
    )
    return identity, nonnegative


# -- independence batteries --------------------------------------------------------


def _masked_random_kernel(
    p: int, q: int, n: int, cells: tuple[int, ...], rng: np.random.Generator
) -> Kernel:
    """Random kernel supported only on multi-indices drawn from ``cells``."""
    base = random_kernel(p, q, n, rng, normalize=False)
    allowed = np.zeros(n, dtype=bool)
    allowed[list(cells)] = True
    if p + q == 0:
        mask = np.ones(())
    else:
        grids = np.meshgrid(*[allowed] * (p + q), indexing="ij")
        mask = np.ones((n,) * (p + q), dtype=bool)
        for g in grids:
            mask &= g
    arr = np.where(mask, base.coeffs, 0.0)
    scale = np.linalg.norm(arr)
    if scale > 0:
        arr = arr / scale
    return Kernel(p, q, n, arr)


def independence_disjoint_report(
    seed: int = DEFAULT_SEED,
    max_degree: int = 6,
    tolerance: float = IDENTITY_TOL,
) -> VerificationReport:
    """Disjointly supported pairs pass the contraction criterion and their
    mixed moments factorize up to the given total degree."""
    rng = np.random.default_rng(seed)
    cases = [
        (Kernel.basis(1, 1, (0, 0), 2), Kernel.basis(1, 1, (1, 1), 2)),
        (
            _masked_random_kernel(2, 0, 3, (0,), rng),
            _masked_random_kernel(1, 1, 3, (1, 2), rng),
        ),
        (
            _masked_random_kernel(1, 0, 3, (0, 1), rng),
            _masked_random_kernel(0, 2, 3, (2,), rng),
        ),
    ]
    worst_criterion = 0.0
    worst_gap = 0.0
    for f, g in cases:
        worst_criterion = worst_of(worst_criterion, independence_check(f, g).residual)
        worst_gap = worst_of(worst_gap, moment_factorization_gap(f, g, max_degree))
    return VerificationReport(
        name="independence-disjoint",
        residual=worst_of(worst_criterion, worst_gap),
        tolerance=tolerance,
        metadata={
            "seed": seed,
            "cases": len(cases),
            "max_moment_degree": max_degree,
            "criterion_residual": worst_criterion,
            "factorization_gap": worst_gap,
        },
    )


def independence_counterexample_report() -> VerificationReport:
    """Negative control: a self-paired kernel must fail the criterion with a
    unit contraction norm and a covariance far from zero."""
    f = Kernel.basis(1, 1, (0, 0), 2)
    report = independence_check(f, f)
    covariance = float(report.metadata["covariance_oracle"])
    ok = report.residual > 0.5 and covariance > 1e-3
    return VerificationReport(
        name="independence-counterexample",
        residual=0.0 if ok else 1.0,
        tolerance=0.5,
        metadata={
            "criterion_residual": report.residual,
            "covariance": covariance,
        },
    )


def independence_implication_report(
    pairs: int = 200,
    seed: int = DEFAULT_SEED,
    criterion_tol: float = STRUCTURAL_TOL,
    tolerance: float = IDENTITY_TOL,
) -> VerificationReport:
    """Whenever the contraction criterion passes, the covariance of squared
    moduli must vanish.  Half of the pairs are built with disjoint supports so
    the passing branch is exercised."""
    rng = np.random.default_rng(seed)
    worst_cov = 0.0
    passing = 0
    for t in range(pairs):
        a = int(rng.integers(0, 3))
        b = int(rng.integers(0 if a else 1, 3 - a))
        c = int(rng.integers(0, 3))
        d = int(rng.integers(0 if c else 1, 3 - c))
        n = 3
        if t % 2 == 0:
            f = _masked_random_kernel(a, b, n, (0,), rng)
            g = _masked_random_kernel(c, d, n, (1, 2), rng)
        else:
            f = random_kernel(a, b, n, rng)
            g = random_kernel(c, d, n, rng)
        report = independence_check(f, g, criterion_tol)
        if report.residual <= criterion_tol:
            passing += 1
            worst_cov = worst_of(worst_cov, abs(float(report.metadata["covariance_oracle"])))
    return VerificationReport(
        name="independence-implication",
        residual=worst_cov,
        tolerance=tolerance,
        metadata={
            "seed": seed,
            "pairs": pairs,
            "criterion_passing": passing,
            "criterion_tolerance": criterion_tol,
        },
    )


# -- hypercontractivity --------------------------------------------------------------


def hypercontractivity_grid_report(
    max_total: int = 4,
    per_order: int = 100,
    max_cells: int = 3,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    grid = _grid(seed, hermite.order_tuples(max_total, 2), max_cells, per_order)
    residuals = [hypercontractivity_check(f).residual for (f,) in grid]
    # closed-form anchors
    single = hypercontractivity_check(Kernel.basis(1, 0, (0,), 1))
    centered = hypercontractivity_check(Kernel.basis(1, 1, (0, 0), 1))
    return VerificationReport(
        name="hypercontractivity-grid",
        residual=worst_of(0.0, *residuals, single.residual, centered.residual),
        tolerance=STRUCTURAL_TOL,
        metadata={
            "seed": seed,
            "max_total_order": max_total,
            "per_order": per_order,
            "anchor_l4_single": single.metadata["l4"],
            "anchor_bound_single": single.metadata["l2_bound"],
            "anchor_l4_centered": centered.metadata["l4"],
            "anchor_bound_centered": centered.metadata["l2_bound"],
        },
    )


# -- asymptotic decay -----------------------------------------------------------------


def asymptotic_decay_reports(
    max_index: int = 64,
    band_factor: float = 3.0,
    gap_tolerance: float = 1e-10,
    max_gap_degree: int = 4,
) -> tuple[VerificationReport, VerificationReport]:
    """Diagnostics for the reference 1/index-coupled pair: contraction norms
    and covariances must decay at least like C/index up to ``band_factor``
    (the covariance of this construction falls off quadratically, so the
    band is one-sided), and the mixed moment factorization gap must decay
    monotonically."""
    first, second = coupled_decay_sequences(max_index)
    rows = asymptotic_diagnostics([first, second])
    c_norm = max(p.max_contraction_norm for p in rows[0].pairs)
    c_cov = max(abs(p.covariance) for p in rows[0].pairs)
    worst_band = 0.0
    for row in rows:
        scale = row.index + 1.0
        r_norm = max(p.max_contraction_norm for p in row.pairs) * scale / c_norm
        r_cov = max(abs(p.covariance) for p in row.pairs) * scale / c_cov
        for ratio in (r_norm, r_cov):
            worst_band = worst_of(worst_band, ratio - band_factor)
    decay = VerificationReport(
        name="asymptotic-decay",
        residual=worst_of(0.0, worst_band),
        tolerance=1e-9,
        metadata={
            "indices": max_index,
            "band_factor": band_factor,
            "initial_contraction": c_norm,
            "initial_covariance": c_cov,
        },
    )
    gaps = [
        moment_factorization_gap(first.entries[t], second.entries[t], max_gap_degree)
        for t in range(max_index)
    ]
    worst_rise = 0.0
    for prev, cur in zip(gaps, gaps[1:]):
        worst_rise = worst_of(worst_rise, cur - prev)
    monotone = VerificationReport(
        name="asymptotic-moment-gap",
        residual=worst_of(0.0, worst_rise),
        tolerance=gap_tolerance,
        metadata={
            "indices": max_index,
            "max_degree": max_gap_degree,
            "first_gap": gaps[0],
            "last_gap": gaps[-1],
        },
    )
    return decay, monotone


# -- Monte Carlo ---------------------------------------------------------------------


def mc_sigma(f: Kernel, plan: montecarlo.SamplePlan) -> tuple[montecarlo.Estimate, float, float]:
    """Sampled vs exact second moment of the integral of f: the estimate, the
    oracle value and their distance in standard errors (0 when the sampled
    spread is a finite zero, NaN when the estimate, its standard error or the
    oracle value is not finite)."""
    poly = expand(f)
    sq = poly * poly.conjugate()
    est = montecarlo.estimate(sq, plan)
    target = oracle.expectation(sq).real
    if not all(map(math.isfinite, (est.value.real, est.value.imag, est.stderr, target))):
        sigma = math.nan
    elif est.stderr > 0:
        sigma = abs(est.value - target) / est.stderr
    else:
        sigma = 0.0
    return est, target, sigma


def _mc_cases(
    kernels: int, samples: int, seed: int, max_total: int, max_cells: int
) -> Iterator[tuple[Kernel, montecarlo.SamplePlan]]:
    """The Monte Carlo battery's kernels with their sample plans: kernel t
    has orders p + q <= ``max_total`` on 1 + t % ``max_cells`` cells."""
    rng = np.random.default_rng(seed)
    for t in range(kernels):
        p = int(rng.integers(0, max_total + 1))
        q = int(rng.integers(0 if p else 1, max_total + 1 - p))
        n = 1 + t % max_cells
        f = random_kernel(p, q, n, rng)
        # Wrapped so a seed near the top of the 64-bit range stays a valid seed.
        yield f, montecarlo.SamplePlan(seed=(seed + 1000 + t) % 2**64, samples=samples, n=n)


def mc_isometry_report(
    kernels: int = 50,
    samples: int = 100_000,
    seed: int = DEFAULT_SEED,
    max_sigma: float = 4.0,
    min_fraction: float = 0.95,
    max_total: int = 3,
    max_cells: int = 3,
) -> VerificationReport:
    """Sampled second moments vs oracle values: the estimate must land within
    ``max_sigma`` standard errors in at least ``min_fraction`` of the cases.
    A kernel whose sigma is not finite fails the battery outright (NaN
    residual) instead of counting as one case outside the band."""
    within = 0
    worst_sigma = 0.0
    for f, plan in _mc_cases(kernels, samples, seed, max_total, max_cells):
        _, _, sigma = mc_sigma(f, plan)
        worst_sigma = worst_of(worst_sigma, sigma)
        if sigma <= max_sigma:
            within += 1
    fraction = within / kernels
    shortfall = worst_of(0.0, min_fraction - fraction)
    return VerificationReport(
        name="mc-isometry",
        residual=shortfall if math.isfinite(worst_sigma) else math.nan,
        tolerance=STRUCTURAL_TOL,
        metadata={
            "seed": seed,
            "kernels": kernels,
            "samples": samples,
            "fraction_within": fraction,
            "max_sigma": max_sigma,
            "worst_sigma": worst_sigma,
            "generator": montecarlo.GENERATOR_NAME,
        },
    )


# -- the full selftest ----------------------------------------------------------------


def _selftest_table(seed: int, samples: int, perturbation: float) -> list[tuple[str, dict]]:
    """(battery name in this module, keyword arguments) of every selftest
    battery, in report order."""
    grid = dict(max_total=4, max_cells=3, seed=seed)
    return [
        ("hermite_normalization_report", dict(max_total=6)),
        ("hermite_product_report", dict(max_total=8, perturbation=perturbation)),
        ("hermite_orthogonality_report", dict(max_degree=6)),
        ("oracle_quadrature_report", {}),
        ("kernel_invariants_report", dict(seed=seed, trials=30)),
        ("expand_symmetrization_report", dict(seed=seed, trials=15)),
        ("conjugate_lemma_report", dict(seed=seed, trials=15)),
        ("product_grid_report", dict(grid, trials=6)),
        ("product_grid_report", dict(grid, trials=6, conjugated=True)),
        ("covariance_grid_reports", dict(grid, trials=6)),
        ("isometry_grid_report", dict(grid, trials=6)),
        ("orthogonality_grid_report", dict(grid, trials=4)),
        ("independence_disjoint_report", dict(seed=seed)),
        ("independence_counterexample_report", {}),
        ("independence_implication_report", dict(pairs=60, seed=seed)),
        ("hypercontractivity_grid_report", dict(max_total=4, per_order=12, seed=seed)),
        ("asymptotic_decay_reports", dict(max_index=16)),
        ("mc_isometry_report", dict(kernels=8, samples=samples, seed=seed)),
    ]


def _serve(table: list[tuple[str, dict]], tickets: int, out: int, inherited: Iterable[int]) -> None:
    """A forked child's loop: close the ``inherited`` descriptors, then take
    one table index at a time from the pipe ``tickets`` until it is empty, and
    send to ``out`` a pickled ``(index, "took", None)`` before running the
    battery and ``(index, "returned", result)`` or ``(index, "raised",
    (exception, formatted traceback))`` after.
    The battery is looked up in this module when it runs, so a replaced one
    runs as replaced.  The child leaves only through ``os._exit``."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(out, "wb") as sink:
            while ticket := os.read(tickets, 1):
                index = ticket[0]
                name, kwargs = table[index]
                sink.write(pickle.dumps((index, "took", None)))
                sink.flush()
                try:
                    frame = pickle.dumps((index, "returned", globals()[name](**kwargs)))
                except Exception as exc:  # sent to the parent, which raises it
                    import traceback  # only on failure: a passing selftest imports nothing more

                    frame = pickle.dumps((index, "raised", (exc, traceback.format_exc())))
                sink.write(frame)
                sink.flush()
        code = 0
    finally:
        os._exit(code)


def _forked(table: list[tuple[str, dict]]) -> list:
    """``globals()[name](**kwargs)`` of every table entry, in table order,
    run in one forked child per CPU (``montecarlo._WORKERS``).

    The table's indices are written to one pipe before any fork; each child
    reads them one byte at a time (a pipe read is atomic) and exits when the
    pipe is empty, so a child whose parent died still stops once the indices
    run out.  This process runs no battery: it reads each child's frames to
    the end, reaps every child on every path, then raises, in table order, the
    first exception a battery raised, or an error naming a battery whose
    child sent no result.  The frames of a whole selftest take about 4 KB,
    far less than a pipe holds, so no child waits while an earlier one is read.
    The fork copies no other thread, so no other thread may hold a lock then;
    the sampler joins its helper threads before it returns.
    """
    tickets, ticket_writer = os.pipe()
    children: dict[int, int] = {}  # pid -> read end of its frame pipe
    codes: dict[int, int] = {}  # pid -> exit code, as os.waitstatus_to_exitcode gives it
    took: dict[int, int] = {}  # table index -> pid of the child that took it
    outcomes: dict[int, tuple[str, object]] = {}
    try:
        os.write(ticket_writer, bytes(range(len(table))))
        os.close(ticket_writer)
        for _ in range(min(montecarlo._WORKERS, len(table))):
            reader, writer = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve(table, tickets, writer, (reader, *children.values()))
            os.close(writer)
            children[pid] = reader
        os.close(tickets)
        tickets = -1
        for pid in children:
            with open(children[pid], "rb") as source:
                children[pid] = -1
                while True:
                    try:
                        index, kind, value = pickle.load(source)
                    except (EOFError, pickle.UnpicklingError):  # the end, or a cut frame
                        break
                    if kind == "took":
                        took[index] = pid
                    else:
                        outcomes[index] = kind, value
    finally:
        for fd in (tickets, *children.values()):
            if fd >= 0:
                os.close(fd)
        for pid in children:  # an unread child that writes now gets EPIPE and exits
            codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    results = []
    for index, (name, _) in enumerate(table):
        if index not in outcomes:
            code = codes[took[index]] if index in took else sorted(codes.values())
            raise RuntimeError(f"selftest battery {index} ({name}) sent no result; child exit status {code}")
        kind, value = outcomes[index]
        if kind == "raised":
            exc, trace = value
            raise exc from RuntimeError(f"selftest battery {index} ({name}) raised in a child:\n{trace}")
        results.append(value)
    return results


def selftest_reports(
    seed: int = DEFAULT_SEED,
    samples: int = 20_000,
    perturbation: float = 0.0,
) -> list[VerificationReport]:
    """Condensed version of every battery; deterministic for a fixed seed.

    ``perturbation`` feeds the negative-control hook of the Hermite product
    battery, which must turn the selftest red when nonzero.  The batteries run
    in forked children (``_forked``); a battery that returns two reports
    (covariance, asymptotic decay) gives two records in place.
    """
    reports: list[VerificationReport] = []
    for result in _forked(_selftest_table(seed, samples, perturbation)):
        reports.extend(result if isinstance(result, tuple) else (result,))
    return reports
