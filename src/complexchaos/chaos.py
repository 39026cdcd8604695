"""The theorem layer for complex Wiener chaos over a discretized measure.

``expand`` maps a kernel to the exact polynomial in Gaussian cell coordinates
z_1..z_n that its multiple integral equals: each multi-index contributes the
product over distinct cells of complex Hermite polynomials (at the certified
normalization rho = 1) in the cell's coordinate, with the Hermite degrees
given by the index multiplicities.  Every identity in this module is then a
statement about polynomials, checked exactly through the Wick oracle:

  * the product of two integrals expands into contracted integrals with
    binomial-factorial weights, and likewise for a product with a conjugated
    integral through the reversed conjugate kernel;
  * the second moment of an integral is p! q! times the squared norm of the
    block-symmetrized kernel, and integrals of different orders are
    orthogonal;
  * the covariance of squared moduli decomposes into a non-negative sum of
    contraction norms (terms of equal total pairing count are grouped before
    the isometry is applied, because they share a chaos and are not mutually
    orthogonal);
  * two integrals are independent exactly when the four first-order
    contractions with the other kernel and its reversed conjugate vanish, and
    sequences decouple asymptotically when those contraction norms decay.

Results come back as ``VerificationReport`` values: residual, tolerance,
pass flag and enough metadata to make the report self-contained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from . import hermite, oracle
from .kernels import (
    MAX_TOTAL_ORDER,
    ContractionSpec,
    Kernel,
    contract,
    ito_symmetrize,
    norm,
    orbit_sums,
    orbit_table,
    reversed_conjugate,
)

__all__ = [
    "ChaosPolynomial",
    "CovarianceComparison",
    "DiagnosticsRow",
    "KernelSequence",
    "PairDiagnostics",
    "ProductTerm",
    "VerificationReport",
    "asymptotic_diagnostics",
    "coupled_decay_sequences",
    "covariance_squares",
    "expand",
    "hermite_to_chaos",
    "hypercontractivity_check",
    "independence_check",
    "integral_conjugate",
    "isometry_check",
    "moment_factorization_gap",
    "product",
    "product_check",
    "product_conjugated",
    "product_conjugated_check",
]

# Default tolerances: identity residuals are relative (coefficients reach ~1e3
# from factorials at cap orders); structural zero checks are absolute.
IDENTITY_TOL = 1e-9
STRUCTURAL_TOL = 1e-12

ExponentKey = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class ChaosPolynomial:
    """Sparse polynomial in z_1..z_n and their conjugates.

    ``terms[(a, b)]`` is the complex coefficient of
    prod_k z_k**a_k * conj(z_k)**b_k.  Zero coefficients are not stored.
    Treated as immutable everywhere.
    """

    n: int
    terms: Mapping[ExponentKey, complex]

    def __post_init__(self) -> None:
        cleaned = {k: complex(c) for k, c in self.terms.items() if c != 0}
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def constant(cls, value: complex, n: int) -> "ChaosPolynomial":
        key = ((0,) * n, (0,) * n)
        return cls(n, {key: complex(value)})

    @classmethod
    def zero(cls, n: int) -> "ChaosPolynomial":
        return cls(n, {})

    def _check_vars(self, other: "ChaosPolynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "ChaosPolynomial") -> "ChaosPolynomial":
        self._check_vars(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            acc = out.get(key, 0j) + c
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
        return ChaosPolynomial(self.n, out)

    def __sub__(self, other: "ChaosPolynomial") -> "ChaosPolynomial":
        return self + (-1.0) * other

    def __mul__(self, other) -> "ChaosPolynomial":
        if not isinstance(other, ChaosPolynomial):
            return self.scaled(other)
        self._check_vars(other)
        out: dict[ExponentKey, complex] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (
                    tuple(x + y for x, y in zip(a1, a2)),
                    tuple(x + y for x, y in zip(b1, b2)),
                )
                out[key] = out.get(key, 0j) + c1 * c2
        return ChaosPolynomial(self.n, out)

    def __rmul__(self, scalar: complex) -> "ChaosPolynomial":
        return self.scaled(scalar)

    def scaled(self, scalar: complex) -> "ChaosPolynomial":
        s = complex(scalar)
        return ChaosPolynomial(self.n, {k: c * s for k, c in self.terms.items()})

    def __pow__(self, power: int) -> "ChaosPolynomial":
        if power < 0:
            raise ValueError("negative powers are not polynomials")
        out = ChaosPolynomial.constant(1.0, self.n)
        for _ in range(power):
            out = out * self
        return out

    def conjugate(self) -> "ChaosPolynomial":
        return ChaosPolynomial(
            self.n, {(b, a): c.conjugate() for (a, b), c in self.terms.items()}
        )

    def evaluate(self, point: Sequence[complex]) -> complex:
        z = [complex(v) for v in point]
        if len(z) != self.n:
            raise ValueError("point dimension mismatch")
        total = 0j
        for (a, b), c in self.terms.items():
            value = c
            for zk, ak, bk in zip(z, a, b):
                if ak:
                    value *= zk**ak
                if bk:
                    value *= zk.conjugate() ** bk
            total += value
        return total

    def max_abs(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def max_diff(self, other: "ChaosPolynomial") -> float:
        self._check_vars(other)
        keys = set(self.terms) | set(other.terms)
        return worst_of(
            0.0, *(abs(self.terms.get(k, 0j) - other.terms.get(k, 0j)) for k in keys)
        )


def worst_of(*values: float, pick=max) -> float:
    """``pick`` (max by default) of the values, or NaN if any of them is NaN
    or infinite, so that a fold over residuals cannot drop a non-finite one:
    plain ``max(0.0, nan)`` is ``0.0`` and would let the report pass."""
    if all(math.isfinite(v) for v in values):
        return pick(values)
    return math.nan


def relative_residual(lhs: ChaosPolynomial, rhs: ChaosPolynomial) -> float:
    """Max coefficient deviation over the larger of the two magnitude scales."""
    return lhs.max_diff(rhs) / max(1.0, lhs.max_abs(), rhs.max_abs())


@dataclass(frozen=True)
class KernelSequence:
    """Named sequence of kernels of one fixed order and cell count."""

    label: str
    entries: tuple[Kernel, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a kernel sequence cannot be empty")
        first = self.entries[0]
        for k in self.entries:
            if k.order != first.order or k.n != first.n:
                raise ValueError("sequence entries must share order and cell count")
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def order(self) -> tuple[int, int]:
        return self.entries[0].order


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check.  ``passed`` is residual <= tolerance by
    construction; metadata records whatever makes the number reproducible."""

    name: str
    residual: float
    tolerance: float
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "metadata", dict(self.metadata))

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "metadata": dict(self.metadata),
        }


# -- expansion into Gaussian coordinates --------------------------------------

# Hermite products per orbit representative.  Module-level cache; inserts are
# idempotent so concurrent use is safe.
_ORBIT_POLYS: dict[tuple, dict[ExponentKey, int]] = {}


def _orbit_poly(left: tuple[int, ...], right: tuple[int, ...]):
    """Product over the cells of Hermite polynomials (rho = 1) whose degrees
    are the cell's slot counts ``left[cell]`` and ``right[cell]``."""
    key = (left, right)
    hit = _ORBIT_POLYS.get(key)
    if hit is not None:
        return hit
    zero = (0,) * len(left)
    poly: dict[ExponentKey, int] = {(zero, zero): 1}
    for cell, (mult_z, mult_conj) in enumerate(zip(left, right)):
        if mult_z + mult_conj == 0:
            continue
        jterms = hermite.build(mult_z, mult_conj, 1).terms
        next_poly: dict[ExponentKey, int] = {}
        for (avec, bvec), c in poly.items():
            for (alpha, beta), w in jterms.items():
                a2 = avec[:cell] + (avec[cell] + alpha,) + avec[cell + 1 :]
                b2 = bvec[:cell] + (bvec[cell] + beta,) + bvec[cell + 1 :]
                k2 = (a2, b2)
                next_poly[k2] = next_poly.get(k2, 0) + c * int(w)
        poly = next_poly
    _ORBIT_POLYS[key] = poly
    return poly


def expand(f: Kernel) -> ChaosPolynomial:
    """Exact Gaussian-coordinate polynomial of the multiple integral of f.

    Linear in f; insensitive to block symmetrization by construction, since
    coefficients are accumulated over block-permutation orbits before the
    Hermite products are attached.  Diagonal (repeated-index) coefficients are
    handled by the Hermite degrees, which is what makes the discretization
    match the diagonal-free continuum integral.
    """
    ids, _, reps = orbit_table(f.n, f.p, f.q)
    sums = orbit_sums(ids, f.coeffs)
    terms: dict[ExponentKey, complex] = {}
    for oid, (left, right) in enumerate(reps):
        c = complex(sums[oid])
        if c == 0:
            continue
        for key, w in _orbit_poly(left, right).items():
            acc = terms.get(key, 0j) + c * w
            if acc == 0:
                terms.pop(key, None)
            else:
                terms[key] = acc
    return ChaosPolynomial(f.n, terms)


def hermite_to_chaos(h: hermite.HermitePolynomial, var: int, n: int) -> ChaosPolynomial:
    """View a univariate Hermite polynomial as a chaos polynomial in z_var."""
    terms: dict[ExponentKey, complex] = {}
    for (a, b), c in h.terms.items():
        avec = tuple(a if k == var else 0 for k in range(n))
        bvec = tuple(b if k == var else 0 for k in range(n))
        terms[(avec, bvec)] = complex(c)
    return ChaosPolynomial(n, terms)


# -- conjugation and isometry --------------------------------------------------


def integral_conjugate(f: Kernel, tolerance: float = STRUCTURAL_TOL) -> VerificationReport:
    """Conjugating the integral equals integrating the reversed conjugate."""
    lhs = expand(f).conjugate()
    rhs = expand(reversed_conjugate(f))
    return VerificationReport(
        name="integral-conjugate",
        residual=lhs.max_diff(rhs),
        tolerance=tolerance,
        metadata={"p": f.p, "q": f.q, "cells": f.n},
    )


def isometry_check(f: Kernel, tolerance: float = STRUCTURAL_TOL) -> VerificationReport:
    """Second moment equals p! q! times the squared symmetrized norm."""
    poly = expand(f)
    second_moment = oracle.pair_expectation(poly, poly.conjugate()).real
    target = (
        math.factorial(f.p) * math.factorial(f.q) * norm(ito_symmetrize(f)) ** 2
    )
    residual = abs(second_moment - target) / max(1.0, abs(target))
    return VerificationReport(
        name="isometry",
        residual=residual,
        tolerance=tolerance,
        metadata={
            "p": f.p,
            "q": f.q,
            "cells": f.n,
            "second_moment": second_moment,
            "target": target,
        },
    )


# -- product formulas ----------------------------------------------------------


@dataclass(frozen=True)
class ProductTerm:
    """One term of a formal integral combination: weight times the integral
    of ``kernel`` at order (kernel.p, kernel.q)."""

    weight: int
    kernel: Kernel


def _product_terms(f: Kernel, g: Kernel) -> list[ProductTerm]:
    a, b = f.order
    c, d = g.order
    terms = []
    for i in range(min(a, d) + 1):
        for j in range(min(b, c) + 1):
            w = hermite.pairing_weight(a, b, c, d, i, j)
            terms.append(ProductTerm(w, contract(f, g, ContractionSpec(i, j))))
    return terms


def _check_pair(f: Kernel, g: Kernel) -> None:
    """Two kernels enter one identity only on the same cells and within the
    combined order cap."""
    if f.n != g.n:
        raise ValueError(f"cell count mismatch: {f.n} vs {g.n}")
    if f.p + f.q + g.p + g.q > MAX_TOTAL_ORDER:
        raise ValueError("combined order exceeds cap")


def product(f: Kernel, g: Kernel) -> list[ProductTerm]:
    """Formal combination equal to integral(f) * integral(g).

    Inputs are block-symmetrized first (the identity is stated for symmetric
    kernels; expansion coefficients do not see the difference).  Terms live in
    different orders, so they are returned as a combination rather than a
    single kernel; ``product_check`` certifies the identity through ``expand``.
    """
    _check_pair(f, g)
    return _product_terms(ito_symmetrize(f), ito_symmetrize(g))


def product_conjugated(f: Kernel, g: Kernel) -> list[ProductTerm]:
    """Formal combination equal to integral(f) * conj(integral(g)): the
    product formula applied against the reversed conjugate of g."""
    _check_pair(f, g)
    return _product_terms(ito_symmetrize(f), reversed_conjugate(ito_symmetrize(g)))


def _combination_expand(terms: Iterable[ProductTerm], n: int) -> ChaosPolynomial:
    total = ChaosPolynomial.zero(n)
    for term in terms:
        total = total + expand(term.kernel).scaled(term.weight)
    return total


def product_check(
    f: Kernel, g: Kernel, tolerance: float = IDENTITY_TOL
) -> VerificationReport:
    lhs = expand(f) * expand(g)
    rhs = _combination_expand(product(f, g), f.n)
    return VerificationReport(
        name="product-formula",
        residual=relative_residual(lhs, rhs),
        tolerance=tolerance,
        metadata={"orders": f"{f.order}x{g.order}", "cells": f.n},
    )


def product_conjugated_check(
    f: Kernel, g: Kernel, tolerance: float = IDENTITY_TOL
) -> VerificationReport:
    lhs = expand(f) * expand(g).conjugate()
    rhs = _combination_expand(product_conjugated(f, g), f.n)
    return VerificationReport(
        name="product-conjugated-formula",
        residual=relative_residual(lhs, rhs),
        tolerance=tolerance,
        metadata={"orders": f"{f.order}x{g.order}", "cells": f.n},
    )


# -- covariance of squared moduli ----------------------------------------------

# Which binomial pattern multiplies the plain contraction norms: the display
# in the source lemma and its own proof disagree, and the proof's counting
# argument is what the oracle confirms.
COVARIANCE_VARIANT = "proof-step binomials; same-order contraction terms grouped"


def _covariance_formula(f: Kernel, g: Kernel) -> float:
    """Exact covariance of |integral(f)|^2 and |integral(g)|^2 assembled from
    contraction norms of the (already symmetrized) kernels.

    The fourth-moment side groups contraction terms with equal total pairing
    count s = i + j before applying the isometry: those terms share a chaos
    and contribute cross inner products, so summing their squared norms
    term-by-term would undercount.  The zero-pairing term minus the product
    of second moments re-expands, by a permutation counting identity, into
    plain contraction norms against g with the proof's binomial pattern.
    """
    a, b = f.order
    c, d = g.order
    h = reversed_conjugate(g)
    parts: list[float] = []
    # Grouped fourth-moment terms with s >= 1 pairings against h.
    for s in range(1, min(a, c) + min(b, d) + 1):
        group: Kernel | None = None
        for i in range(min(a, c, s), -1, -1):
            j = s - i
            if j > min(b, d):
                continue
            w = hermite.pairing_weight(a, b, d, c, i, j)
            piece = w * contract(f, h, ContractionSpec(i, j))
            group = piece if group is None else group + piece
        if group is None:
            continue
        weight = math.factorial(a + d - s) * math.factorial(b + c - s)
        parts.append(weight * norm(ito_symmetrize(group)) ** 2)
    # Re-expanded zero-pairing remainder: plain norms against g.
    base = (
        math.factorial(a) * math.factorial(b) * math.factorial(c) * math.factorial(d)
    )
    for i in range(min(a, d) + 1):
        for j in range(min(b, c) + 1):
            if i + j == 0:
                continue
            w = (
                math.comb(a, i)
                * math.comb(d, i)
                * math.comb(b, j)
                * math.comb(c, j)
            )
            parts.append(w * base * norm(contract(f, g, ContractionSpec(i, j))) ** 2)
    return math.fsum(parts)


def _covariance_oracle(f: Kernel, g: Kernel) -> float:
    pf = expand(f)
    pg = expand(g)
    sq_f = pf * pf.conjugate()
    sq_g = pg * pg.conjugate()
    joint = oracle.pair_expectation(sq_f, sq_g).real
    return joint - oracle.expectation(sq_f).real * oracle.expectation(sq_g).real


@dataclass(frozen=True)
class CovarianceComparison:
    formula: float
    oracle: float
    report: VerificationReport


def covariance_squares(
    f: Kernel, g: Kernel, tolerance: float = IDENTITY_TOL
) -> CovarianceComparison:
    """Covariance of squared moduli: contraction-norm formula vs Wick oracle.

    The formula value is a sum of squared norms, hence certifies the
    non-negative correlation of squared moduli as a side effect.
    """
    _check_pair(f, g)
    fs = ito_symmetrize(f)
    gs = ito_symmetrize(g)
    formula = _covariance_formula(fs, gs)
    exact = _covariance_oracle(fs, gs)
    residual = abs(formula - exact) / max(1.0, abs(exact))
    report = VerificationReport(
        name="covariance-squares",
        residual=residual,
        tolerance=tolerance,
        metadata={
            "orders": f"{f.order}x{g.order}",
            "cells": f.n,
            "formula": formula,
            "oracle": exact,
            "variant": COVARIANCE_VARIANT,
        },
    )
    return CovarianceComparison(formula=formula, oracle=exact, report=report)


# -- independence ---------------------------------------------------------------


def independence_check(
    f: Kernel, g: Kernel, tolerance: float = STRUCTURAL_TOL
) -> VerificationReport:
    """First-order contraction criterion for independence of two integrals.

    The residual is the largest of the four contraction norms (against g and
    against its reversed conjugate, in both pairing directions); inadmissible
    contractions count as zero.  The exact covariance of squared moduli is
    reported alongside, which vanishes exactly when the criterion holds.
    """
    if f.p + f.q == 0 or g.p + g.q == 0:
        raise ValueError("independence criterion needs non-degenerate orders")
    fs = ito_symmetrize(f)
    gs = ito_symmetrize(g)
    h = reversed_conjugate(gs)
    norms = {
        "with-kernel-10": norm(contract(fs, gs, ContractionSpec(1, 0))),
        "with-kernel-01": norm(contract(fs, gs, ContractionSpec(0, 1))),
        "with-reversed-10": norm(contract(fs, h, ContractionSpec(1, 0))),
        "with-reversed-01": norm(contract(fs, h, ContractionSpec(0, 1))),
    }
    comparison = covariance_squares(f, g)
    metadata: dict[str, object] = {
        "orders": f"{f.order}x{g.order}",
        "cells": f.n,
        "covariance_formula": comparison.formula,
        "covariance_oracle": comparison.oracle,
    }
    metadata.update(norms)
    return VerificationReport(
        name="independence-criterion",
        residual=worst_of(*norms.values()),
        tolerance=tolerance,
        metadata=metadata,
    )


def moment_factorization_gap(f: Kernel, g: Kernel, max_degree: int = 6) -> float:
    """Largest deviation of joint mixed moments from the product of marginal
    moments, over all exponent patterns of total degree <= max_degree."""
    pf = expand(f)
    pg = expand(g)
    pf_c = pf.conjugate()
    pg_c = pg.conjugate()
    pow_f: dict[tuple[int, int], ChaosPolynomial] = {}
    pow_g: dict[tuple[int, int], ChaosPolynomial] = {}

    def mixed(base, base_c, cache, lk):
        if lk not in cache:
            cache[lk] = (base ** lk[0]) * (base_c ** lk[1])
        return cache[lk]

    worst = 0.0
    for l1 in range(max_degree + 1):
        for k1 in range(max_degree + 1 - l1):
            left = mixed(pf, pf_c, pow_f, (l1, k1))
            e_left = oracle.expectation(left)
            for l2 in range(max_degree + 1 - l1 - k1):
                for k2 in range(max_degree + 1 - l1 - k1 - l2):
                    if l1 + k1 == 0 or l2 + k2 == 0:
                        continue
                    right = mixed(pg, pg_c, pow_g, (l2, k2))
                    joint = oracle.pair_expectation(left, right)
                    gap = abs(joint - e_left * oracle.expectation(right))
                    worst = worst_of(worst, gap)
    return worst


# -- asymptotic diagnostics ------------------------------------------------------


@dataclass(frozen=True)
class PairDiagnostics:
    """Cross-terms between two sequences at one index: the largest admissible
    contraction norm (against the kernel and its reversed conjugate, over all
    pairing counts with r + s >= 1) and the exact covariance of squared moduli."""

    pair: tuple[int, int]
    max_contraction_norm: float
    covariance: float


@dataclass(frozen=True)
class DiagnosticsRow:
    index: int
    pairs: tuple[PairDiagnostics, ...]
    second_moments: tuple[float, ...]


def _max_cross_contraction(f: Kernel, g: Kernel) -> float:
    a, b = f.order
    c, d = g.order
    h = reversed_conjugate(g)
    worst = 0.0
    for r in range(min(a, d) + 1):
        for s in range(min(b, c) + 1):
            if r + s == 0:
                continue
            worst = worst_of(worst, norm(contract(f, g, ContractionSpec(r, s))))
    for r in range(min(a, c) + 1):
        for s in range(min(b, d) + 1):
            if r + s == 0:
                continue
            worst = worst_of(worst, norm(contract(f, h, ContractionSpec(r, s))))
    return worst


def asymptotic_diagnostics(seqs: Sequence[KernelSequence]) -> list[DiagnosticsRow]:
    """Per-index decoupling diagnostics for a family of kernel sequences.

    For every ordered pair of distinct sequences the row records the largest
    admissible cross-contraction norm and the exact covariance of squared
    moduli; per sequence it records the exact second moment (the bounded
    variance hypothesis is reported, not enforced).  Both pair diagnostics
    vanish together in the limit, up to the constant factors that relate them
    in the covariance decomposition.
    """
    if len(seqs) < 2:
        raise ValueError("need at least two sequences")
    length = len(seqs[0].entries)
    for s in seqs:
        if len(s.entries) != length:
            raise ValueError("sequences must have equal length")
    for t in range(length):
        cells = {s.entries[t].n for s in seqs}
        if len(cells) != 1:
            raise ValueError(f"cell counts differ at index {t}")
    rows = []
    for t in range(length):
        kernels = [ito_symmetrize(s.entries[t]) for s in seqs]
        pairs = []
        for i in range(len(seqs)):
            for j in range(len(seqs)):
                if i == j:
                    continue
                pairs.append(
                    PairDiagnostics(
                        pair=(i, j),
                        max_contraction_norm=_max_cross_contraction(
                            kernels[i], kernels[j]
                        ),
                        covariance=_covariance_oracle(kernels[i], kernels[j]),
                    )
                )
        moments = []
        for k in kernels:
            poly = expand(k)
            moments.append(oracle.pair_expectation(poly, poly.conjugate()).real)
        rows.append(
            DiagnosticsRow(index=t, pairs=tuple(pairs), second_moments=tuple(moments))
        )
    return rows


def coupled_decay_sequences(length: int) -> tuple[KernelSequence, KernelSequence]:
    """Reference pair of order-(1,1) sequences on two cells whose coupling
    decays like 1/index: the first is fixed on cell 0, the second mixes a
    1/index multiple of it with a disjoint kernel on cell 1."""
    base = Kernel.basis(1, 1, (0, 0), 2)
    other = Kernel.basis(1, 1, (1, 1), 2)
    first = KernelSequence("fixed", tuple(base for _ in range(length)))
    second = KernelSequence(
        "decaying",
        tuple((1.0 / (t + 1)) * base + other for t in range(length)),
    )
    return first, second


# -- hypercontractivity ----------------------------------------------------------


def hypercontractivity_check(
    f: Kernel, tolerance: float = STRUCTURAL_TOL
) -> VerificationReport:
    """Fourth-moment hypercontractivity: the L4 norm of the integral is at
    most 3**((p+q)/2) times its L2 norm.  Residual is the positive excess."""
    poly = expand(f)
    sq = poly * poly.conjugate()
    m2 = oracle.expectation(sq).real
    m4 = oracle.pair_expectation(sq, sq).real
    lhs = max(m4, 0.0) ** 0.25
    rhs = 3.0 ** ((f.p + f.q) / 2.0) * max(m2, 0.0) ** 0.5
    residual = worst_of(0.0, lhs - rhs)
    return VerificationReport(
        name="hypercontractivity",
        residual=residual,
        tolerance=tolerance,
        metadata={
            "p": f.p,
            "q": f.q,
            "cells": f.n,
            "l4": lhs,
            "l2_bound": rhs,
        },
    )
