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
from functools import reduce
from operator import add
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import hermite, montecarlo, oracle
from .kernels import (
    MAX_CELLS,
    MAX_TOTAL_ORDER,
    ContractionSpec,
    Kernel,
    _contraction_plan,
    _norm,
    cached_by_shape,
    contract,
    contraction,
    ito_symmetrize,
    orbit_mean,
    orbit_sums,
    orbit_table,
    reversed_conjugate,
    reversed_conjugate_of,
)
from .oracle import (  # the work budget, oracle.MAX_TERM_PAIRS, bounds products and joins
    MAX_EXPONENT,
    WorkBudgetError,
    check_budget,
    cmul,
    diagonal_sum,
    expectation_plan,
    join_plan,
    join_sum,
    key_sum,
    pack,
    unpack,
)

__all__ = [
    "ChaosPolynomial",
    "CovarianceComparison",
    "DiagnosticsRow",
    "KernelSequence",
    "PairDiagnostics",
    "ProductTerm",
    "VerificationReport",
    "WorkBudgetError",
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

def _groups(z: np.ndarray, zc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Key plan of terms keyed ``z`` and ``zc``: the distinct keys in order
    of first occurrence, as the rows of one (2, keys) array, and every
    term's group, the index of its key there, as int32 (which halves the
    plans that ``cached_by_shape`` keeps)."""
    order = np.lexsort((zc, z))  # stable
    sz, szc = z[order], zc[order]
    new = np.empty(len(z), dtype=bool)
    new[:1] = True
    np.logical_or(sz[1:] != sz[:-1], szc[1:] != szc[:-1], out=new[1:])
    group = np.empty(len(z), dtype=np.intp)
    group[order] = new.cumsum() - 1
    first = order[new]  # in key order; the sort is stable
    rank = first.argsort()
    label = np.empty(len(first), dtype=np.intp)
    label[rank] = np.arange(len(first))
    first = first[rank]
    return np.stack((z[first], zc[first])), label[group].astype(np.int32)


class ChaosPolynomial:
    """Sparse polynomial in z_1..z_n and their conjugates.

    Term t is ``re[t] + 1j * im[t]`` times prod_k z_k**a_k * conj(z_k)**b_k,
    where a and b are the exponents packed in the keys ``z[t]`` and ``zc[t]``
    (see ``oracle.pack``).  Keys are distinct and zero coefficients are not
    stored.  Products, sums and ``expand`` hold their keys in order of first
    occurrence among the terms they add up (products take term pairs in
    row-major order); that order is not part of a polynomial's value.  A
    key's coefficient is the sum of its terms in that order, from 0.0.

    ``layout`` is a hashable token that fixes the keys and their order:
    ``("terms", n, z, zc)`` for a polynomial built from a mapping (constants
    and zero among them), where z and zc are the bytes of its key arrays,
    ``("expand", n, p, q)`` for the expansion of a kernel, ``("mul", A, B)``
    for a product, ``("conj", A)`` for a conjugate and ``("sum", A, B, ...)``
    for a sum of operands of layouts A, B, ...; scaling keeps it.  A result
    of layout A that drops zero coefficients has layout ``("kept", A,
    mask)``, where ``mask`` is the ``np.packbits`` bytes of the kept keys
    among A's.  Key work that depends only on layouts (groupings, product
    keys, oracle joins) is planned once per layout and cached with
    ``kernels.cached_by_shape``.  A product of more than
    ``oracle.MAX_TERM_PAIRS`` term pairs raises ``WorkBudgetError``.
    ``terms`` is the same polynomial as a read-only mapping
    ``{(a, b): coefficient}``, built on first use.  Treated as immutable
    everywhere.
    """

    __slots__ = ("n", "z", "zc", "re", "im", "layout", "_terms")

    def __init__(self, n: int, terms: Mapping[ExponentKey, complex]) -> None:
        if not 0 <= n <= MAX_CELLS:
            raise ValueError(f"variable count {n} outside 0..{MAX_CELLS}")
        items = [(key, complex(c)) for key, c in terms.items() if c != 0]
        error = ValueError(f"exponent keys must be two length-{n} vectors in 0..{MAX_EXPONENT}")
        if any(len(a) != n or len(b) != n for (a, b), _ in items):
            raise error
        exps = np.array([tuple(a) + tuple(b) for (a, b), _ in items]).reshape(len(items), 2 * n)
        integers = exps.dtype.kind in "iu"
        if exps.size and not (integers and 0 <= exps.min() and exps.max() <= MAX_EXPONENT):
            raise error
        exps = exps.astype(np.int64)
        z, zc = pack(exps[:, :n]), pack(exps[:, n:])
        re, im = np.array([c.real for _, c in items]), np.array([c.imag for _, c in items])
        self._set(n, z, zc, re, im, ("terms", n, z.tobytes(), zc.tobytes()))

    def _set(self, n: int, z, zc, re, im, layout) -> None:
        self.n, self.z, self.zc, self.re, self.im, self.layout = n, z, zc, re, im, layout
        self._terms = None

    @classmethod
    def _of(cls, n: int, z, zc, re, im, layout) -> "ChaosPolynomial":
        """Polynomial of distinct keys of layout ``layout``; zero
        coefficients are dropped, which makes the layout a kept-key one."""
        if not _live(re, im):
            live = np.logical_or(re, im)
            z, zc, re, im = z[live], zc[live], re[live], im[live]
            layout = ("kept", layout, np.packbits(live).tobytes())
        poly = cls.__new__(cls)
        poly._set(n, z, zc, re, im, layout)
        return poly

    @property
    def terms(self) -> Mapping[ExponentKey, complex]:
        if self._terms is None:
            a = unpack(self.z, self.n).tolist()
            b = unpack(self.zc, self.n).tolist()
            coef = map(complex, self.re.tolist(), self.im.tolist())
            self._terms = MappingProxyType(
                {(tuple(x), tuple(y)): c for x, y, c in zip(a, b, coef)}
            )
        return self._terms

    @classmethod
    def constant(cls, value: complex, n: int) -> "ChaosPolynomial":
        return cls(n, {((0,) * n, (0,) * n): complex(value)})

    @classmethod
    def zero(cls, n: int) -> "ChaosPolynomial":
        return cls(n, {})

    def _check_vars(self, other: "ChaosPolynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "ChaosPolynomial") -> "ChaosPolynomial":
        self._check_vars(other)
        return _sum_of(self.n, [(self, 1), (other, 1)])

    def __sub__(self, other: "ChaosPolynomial") -> "ChaosPolynomial":
        return self + (-1.0) * other

    def __mul__(self, other) -> "ChaosPolynomial":
        if not isinstance(other, ChaosPolynomial):
            return self.scaled(other)
        self._check_vars(other)
        layout, (keys, group) = _product_plan(self, other)
        re, im = _product_values((self.re, self.im), (other.re, other.im), group)
        return ChaosPolynomial._of(self.n, keys[0], keys[1], re, im, layout)

    def __rmul__(self, scalar: complex) -> "ChaosPolynomial":
        return self.scaled(scalar)

    def scaled(self, scalar: complex) -> "ChaosPolynomial":
        s = complex(scalar)
        re, im = cmul(self.re, self.im, s.real, s.imag)
        return ChaosPolynomial._of(self.n, self.z, self.zc, re, im, self.layout)

    def __pow__(self, power: int) -> "ChaosPolynomial":
        if power < 0:
            raise ValueError("negative powers are not polynomials")
        out = ChaosPolynomial.constant(1.0, self.n)
        for _ in range(power):
            out = out * self
        return out

    def conjugate(self) -> "ChaosPolynomial":
        layout = ("conj", self.layout)
        return ChaosPolynomial._of(self.n, self.zc, self.z, self.re, -self.im, layout)

    def evaluate(self, point: Sequence[complex]) -> complex:
        return complex(montecarlo.evaluate_polynomial(self, np.array([point], dtype=complex))[0])

    def max_abs(self) -> float:
        return _max_modulus(self.re, self.im)

    def max_diff(self, other: "ChaosPolynomial") -> float:
        self._check_vars(other)
        group = _sum_keys([(self, 1), (other, -1)], ("sum", self.layout, other.layout))[1]
        re, im = _sum_values(((self.re, self.im, 1), (other.re, other.im, -1)))
        return worst_of(0.0, _max_modulus(np.bincount(group, re), np.bincount(group, im)))


# -- array arithmetic shared by the polynomial operations and the check programs


def _live(re: np.ndarray, im: np.ndarray) -> bool:
    """Whether every coefficient ``re + 1j * im`` is nonzero, so that a
    polynomial of them drops none."""
    return np.count_nonzero(np.logical_or(re, im)) == len(re)


def _group_sums(group, re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-key sums of the terms ``re + 1j * im`` under a key plan's group
    (None when the terms are the groups), each from 0.0 in term order."""
    if group is None:
        return re, im
    return np.bincount(group, re), np.bincount(group, im)


def _product_plan(x: ChaosPolynomial, y: ChaosPolynomial) -> tuple:
    """Layout and key plan of ``x * y``, planned once per pair of layouts.
    More than ``oracle.MAX_TERM_PAIRS`` term pairs raise WorkBudgetError
    first."""
    check_budget(len(x.z) * len(y.z), "a product", len(x.z), len(y.z))
    layout = ("mul", x.layout, y.layout)
    return layout, cached_by_shape(layout, lambda: _product_keys(x, y))


def _product_keys(x: ChaosPolynomial, y: ChaosPolynomial) -> tuple:
    """Key plan of ``x * y``: term pair (i, j) has the key sum of x's term i
    and y's term j.  Raises ValueError where an exponent passes the digit."""
    z = key_sum(x.z[:, None], y.z).ravel()
    zc = key_sum(x.zc[:, None], y.zc).ravel()
    if len(x.z) == 1 or len(y.z) == 1:  # keys stay distinct
        return np.stack((z, zc)), None
    return _groups(z, zc)


def _product_values(x: tuple, y: tuple, group) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of a product from the parts ``(re, im)`` of its
    operands' coefficients and its key plan's group: term pairs in
    row-major order, the order of the dict's double loop.  A conjugated
    operand is passed as ``(re, -im)``."""
    re, im = cmul(x[0][:, None], x[1][:, None], y[0], y[1])
    return _group_sums(group, re.ravel(), im.ravel())


def _sum_keys(parts: Sequence[tuple[ChaosPolynomial, float]], layout) -> tuple:
    """Key plan of the sum of the parts' polynomials, one after the other,
    whose layout is ``layout``."""
    return cached_by_shape(
        layout,
        lambda: _groups(
            np.concatenate([poly.z for poly, _ in parts]),
            np.concatenate([poly.zc for poly, _ in parts]),
        ),
    )


def _sum_values(parts: Sequence[tuple]) -> tuple[np.ndarray, ...]:
    """Coefficients ``w * (re + 1j * im)`` of the ``(re, im, w)`` parts, one
    after the other, for integer or float w.  Scaling by a real number
    rounds as ``scaled`` does up to the signs of zeros, which the sums over
    groups make +0.0."""
    return (
        np.concatenate([re * w if w != 1 else re for re, _, w in parts]),
        np.concatenate([im * w if w != 1 else im for _, im, w in parts]),
    )


def _sum_of(n: int, parts: Sequence[tuple[ChaosPolynomial, float]]) -> ChaosPolynomial:
    """Sum of ``poly.scaled(w)`` over the ``(poly, w)`` parts (w nonzero), as
    if each part were scaled and added after the one before."""
    layout = ("sum", *(poly.layout for poly, _ in parts))
    keys, group = _sum_keys(parts, layout)
    values = _sum_values([(poly.re, poly.im, w) for poly, w in parts])
    return ChaosPolynomial._of(n, keys[0], keys[1], *_group_sums(group, *values), layout)


def _max_modulus(re: np.ndarray, im: np.ndarray) -> float:
    # hypot is Python's abs(complex); numpy's complex abs rounds differently.
    return float(np.maximum.reduce(np.hypot(re, im))) if len(re) else 0.0


def worst_of(*values: float, pick=max) -> float:
    """``pick`` (max by default) of the values, or NaN if any of them is NaN
    or infinite, so that a fold over residuals cannot drop a non-finite one:
    plain ``max(0.0, nan)`` is ``0.0`` and would let the report pass."""
    if all(math.isfinite(v) for v in values):
        return pick(values)
    return math.nan


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


def _orbit_terms(n: int, p: int, q: int) -> tuple[np.ndarray, ...]:
    """The expansion of every orbit of an (n, p, q) kernel as flat arrays.

    An orbit expands into the product over the cells of the Hermite
    polynomials (rho = 1) whose degrees are the cell's slot counts in the two
    blocks.  Its terms run orbit by orbit; within an orbit, cell 0 varies
    slowest and each cell's Hermite terms keep their order in
    ``hermite.build``.  Returned: each term's orbit and integer weight (as
    a float), then the key plan of the terms (see ``_groups``).
    """

    def build():
        _, _, left, right = orbit_table(n, p, q)
        start = np.zeros((p + 1, q + 1), dtype=np.int64)
        count = np.zeros((p + 1, q + 1), dtype=np.int64)
        flat: list[tuple[int, int, int]] = []
        for m in range(p + 1):
            for mc in range(q + 1):
                items = hermite.build(m, mc, 1).terms.items()
                start[m, mc], count[m, mc] = len(flat), len(items)
                flat += [(alpha, beta, w) for (alpha, beta), w in items]
        alpha, beta, weight = np.array(flat, dtype=np.int64).T
        orbit = np.arange(len(left))
        a = np.zeros((len(left), n), dtype=np.int64)
        b = np.zeros((len(left), n), dtype=np.int64)
        w = np.ones(len(left), dtype=np.int64)
        for cell in range(n):
            slots = (left[orbit, cell], right[orbit, cell])
            times = count[slots]
            src = np.repeat(np.arange(len(orbit)), times)
            j = np.arange(len(src)) - np.repeat(np.cumsum(times) - times, times)
            j += start[slots][src]
            orbit, a, b, w = orbit[src], a[src], b[src], w[src] * weight[j]
            a[:, cell], b[:, cell] = alpha[j], beta[j]
        return (orbit, w.astype(float)) + _groups(pack(a), pack(b))

    return cached_by_shape(("terms", n, p, q), build)


def expand(f: Kernel) -> ChaosPolynomial:
    """Exact Gaussian-coordinate polynomial of the multiple integral of f.

    Linear in f; insensitive to block symmetrization by construction, since
    coefficients are accumulated over block-permutation orbits before the
    Hermite products are attached.  Diagonal (repeated-index) coefficients are
    handled by the Hermite degrees, which is what makes the discretization
    match the diagonal-free continuum integral.
    """
    terms = _orbit_terms(f.n, f.p, f.q)
    sums = orbit_sums(f.coeffs, orbit_table(f.n, f.p, f.q)[0])
    return _expansion_of(f, terms, _expansion(sums, terms))


def _expansion_of(f: Kernel, terms: tuple, coefficients: tuple) -> ChaosPolynomial:
    """``expand(f)`` from f's ``_orbit_terms`` and the coefficients of its
    ``_expansion``, whose zeros it drops."""
    keys = terms[2]
    return ChaosPolynomial._of(f.n, keys[0], keys[1], *coefficients, ("expand", f.n, f.p, f.q))


def _expansion(sums: tuple, terms: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of an expansion, keyed as in ``_orbit_terms``, from the
    kernel's ``orbit_sums`` and the ``_orbit_terms`` of its shape."""
    orbit, w, _, group = terms
    # A term's coefficient is its orbit's sum times its weight.  Python's
    # complex-times-int would also add products with 0.0; they only flip the
    # signs of zeros, which the sums over keys turn into +0.0.  So do the
    # terms of an orbit whose sum is zero: they are +-0.0, change no sum,
    # and leave a key that only they have at +0.0, which is dropped.
    return _group_sums(group, sums[0][orbit] * w, sums[1][orbit] * w)


# -- check programs ------------------------------------------------------------
#
# A check that composes ChaosPolynomial operations spends most of its time on
# their per-call work (layout tokens, locked plan lookups, zero tests and the
# objects), not on arithmetic.  A check program runs the same arithmetic, in
# the same order and through the same array helpers, on bare coefficient
# arrays, with every plan it needs fetched in one lookup per (check, cell
# count, orders).  It forms only the parts the check reads.  The expansions
# of the input kernels drop their zero coefficients, as ``expand`` does (see
# ``_program``); every later intermediate keeps them.


def _keyed(n: int, keys: tuple, layout: tuple) -> ChaosPolynomial:
    """Coefficient-free polynomial of the key rows ``keys`` and ``layout``."""
    poly = ChaosPolynomial.__new__(ChaosPolynomial)
    poly._set(n, keys[0], keys[1], None, None, layout)
    return poly


def _shape(n: int, p: int, q: int) -> ChaosPolynomial:
    """Coefficient-free stand-in of the expansion of an (n, p, q) kernel
    that drops no coefficient, for planning: all its keys and layout
    ``("expand", n, p, q)``."""
    return _keyed(n, _orbit_terms(n, p, q)[2], ("expand", n, p, q))


def _conjugated(x: ChaosPolynomial) -> ChaosPolynomial:
    """Stand-in of ``x.conjugate()`` for the stand-in x."""
    return _keyed(x.n, (x.zc, x.z), ("conj", x.layout))


def _kernel_plan(n: int, p: int, q: int) -> tuple:
    """What a program needs of an (n, p, q) kernel: its orbit ids and orbit
    sizes, and its ``_orbit_terms``."""
    ids, sizes, _, _ = orbit_table(n, p, q)
    return ids, sizes, _orbit_terms(n, p, q)


def _expanded(f: Kernel, plan: tuple) -> tuple:
    """f's ``orbit_sums`` and the coefficients of ``expand(f)`` before its
    zero test."""
    sums = orbit_sums(f.coeffs, plan[0])
    return sums, _expansion(sums, plan[2])


def _program(key: tuple, build, kernels: Sequence[Kernel]) -> tuple:
    """The plan of a check on ``kernels``, and per kernel its ``orbit_sums``
    and the coefficients of its expansion.

    ``build(expansions)`` plans the check from the keys and layout of each
    kernel's expansion; its plan starts with the kernels' ``_kernel_plan``s.
    The plan of the full expansions is fetched under ``key`` in one lookup,
    built from their ``_shape``s.  Where an expansion drops a zero
    coefficient, every expansion is built as ``expand`` builds it, and the
    plan of their keys is fetched under ``key + ("kept", layouts)``.  A plan
    of the full expansions past the work budget is refused with
    WorkBudgetError only if no expansion drops one."""
    refused = None
    try:
        plan = cached_by_shape(key, lambda: build([_shape(f.n, f.p, f.q) for f in kernels]))
        kernel_plans = plan[0]
    except WorkBudgetError as error:
        refused, kernel_plans = error, [_kernel_plan(f.n, f.p, f.q) for f in kernels]
    parts = [_expanded(f, kernel_plan) for f, kernel_plan in zip(kernels, kernel_plans)]
    if all(_live(*x) for _, x in parts):
        if refused is not None:
            raise refused
        return plan, parts
    polys = [_expansion_of(f, kernel_plan[2], x) for f, kernel_plan, (_, x) in zip(kernels, kernel_plans, parts)]
    plan = cached_by_shape(key + ("kept", tuple(x.layout for x in polys)), lambda: build(polys))
    return plan, [(sums, (x.re, x.im)) for (sums, _), x in zip(parts, polys)]


def _square_plan(x: ChaosPolynomial) -> tuple:
    """Stand-in and group of ``e * e.conjugate()`` for an expansion's
    stand-in x."""
    layout, (keys, group) = _product_plan(x, _conjugated(x))
    return _keyed(x.n, keys, layout), group


def _square_degrees(p: int, q: int) -> range:
    """The degrees L of the keys (A, B) of the square of a (p, q)
    expansion: |A| = |B| = L.  The expansion's keys are every pair (a, b)
    of exponent vectors with |a| = p - r and |b| = q - r for r in
    0..min(p, q), since every Hermite term of every orbit has a nonzero
    weight; so the square's keys are every pair of equal degree in this
    range."""
    m = min(p, q)
    return range(max(p, q) - m, p + q + 1)


def _square_keys(n: int, p: int, q: int) -> int:
    """How many keys the square of an (n, p, q) expansion has."""
    return sum(math.comb(d + n - 1, n - 1) ** 2 for d in _square_degrees(p, q))


def _square_join_pairs(n: int, f: tuple[int, int], g: tuple[int, int]) -> int:
    """Term pairs of the Wick join of the squares of an (n, *f) and an
    (n, *g) expansion, counted from the orders alone.

    Keys (A, B) and (A', B') join where A + A' = B + B'.  Cell by cell that
    is A_k <= B_k + B'_k, which fixes A'_k, so the join has as many pairs as
    there are triples (A, B, B') within those bounds with |A| = |B| in f's
    ``_square_degrees`` and |B'| in g's.  ``counts[a, b, c]`` counts the
    triples over the cells so far of degrees a, b and c; within the caps
    every count stays below 2**63."""
    degrees = _square_degrees(*f), _square_degrees(*g)
    top = max(degrees[0][-1], degrees[1][-1])
    counts = np.zeros((top + 1,) * 3, dtype=np.int64)
    counts[0, 0, 0] = 1
    for _ in range(n):
        below = counts.cumsum(axis=0)
        added = np.zeros_like(counts)
        for m in range(2 * top + 1):  # m = B_k + B'_k
            window = below.copy()  # the counts of degree a - A_k, A_k in 0..m
            if m < top:
                window[m + 1 :] -= below[: top - m]
            for b in range(max(0, m - top), min(m, top) + 1):
                c = m - b
                added[:, b:, c:] += window[:, : top + 1 - b, : top + 1 - c]
        counts = added
    return int(sum(counts[d, d, e] for d in degrees[0] for e in degrees[1]))


def _product_program(f: Kernel, g: Kernel, conjugated: bool) -> float:
    """Relative residual of the (plain or conjugated) product formula: the
    largest coefficient deviation of its two sides over the larger of 1.0
    and their largest coefficient moduli."""
    (a, b), right = f.order, (g.q, g.p) if conjugated else g.order
    n = f.n

    def build(shapes):
        x, y = shapes
        lhs_keys, lhs_group = _product_plan(x, _conjugated(y) if conjugated else y)[1]
        c, d = right
        pairs = [(i, j) for i in range(min(a, d) + 1) for j in range(min(b, c) + 1)]
        orders = tuple((a + c - i - j, b + d - i - j) for i, j in pairs)
        contractions = tuple(
            (_contraction_plan(a, b, c, d, i, j), orbit_table(n, *order)[0]) for (i, j), order in zip(pairs, orders)
        )
        terms, counts = _fused_terms(n, orders)
        weights = np.repeat([-float(hermite.pairing_weight(a, b, c, d, *ij)) for ij in pairs], counts)  # for -rhs
        # The keys of lhs - rhs: lhs's, in order, then the terms' other keys.
        keys, group = _groups(*np.concatenate([lhs_keys] + [_orbit_terms(n, *order)[2] for order in orders], axis=1))
        kernel_plans = _kernel_plan(n, a, b), _kernel_plan(n, *g.order)
        return kernel_plans, lhs_group, contractions, terms, weights, group[lhs_keys.shape[1] :].copy(), keys.shape[1]

    key = ("check", "product-conjugated" if conjugated else "product", n, a, b, *g.order)
    plan, ((f_sums, x), (g_sums, y)) = _program(key, build, (f, g))
    (f_plan, g_plan), lhs_group, contractions, terms, weights, rhs_group, size = plan
    lhs = _product_values(x, (y[0], -y[1]) if conjugated else y, lhs_group)
    fs, gs = orbit_mean(f.coeffs, *f_plan[:2], f_sums), orbit_mean(g.coeffs, *g_plan[:2], g_sums)
    if conjugated:
        gs = reversed_conjugate_of(gs, g.p)
    # Each contraction is freed after its orbit sums; the rest is one pass.
    sums = [orbit_sums(contraction(fs, gs, n, cp), ids) for cp, ids in contractions]
    re, im = _expansion((np.concatenate([s[0] for s in sums]), np.concatenate([s[1] for s in sums])), terms)
    # The composition of ChaosPolynomial operations would drop the zero
    # coefficients of lhs, of rhs and of their terms (the weighted terms of
    # rhs often cancel exactly).  Keeping them changes no residual: they add
    # a +-0.0 to per-key sums that start at +0.0, and a 0.0 to the maxima of
    # moduli.  Only the expansions of f and g must hold no zero, since their
    # products with an inf coefficient would be NaN.  Every term is weighted
    # (x * 1.0 is x), by -w, and summed straight onto the keys of lhs - rhs:
    # each key's sum is that of -rhs, up to the sign of a zero, and +0.0 on
    # a key of lhs alone.  Adding lhs then gives max_diff's sums, whose
    # bincount adds the same two terms to 0.0.
    re, im = np.bincount(rhs_group, re * weights, size), np.bincount(rhs_group, im * weights, size)
    rhs_max = _max_modulus(re, im)
    re[: len(lhs[0])] += lhs[0]
    im[: len(lhs[0])] += lhs[1]
    return worst_of(0.0, _max_modulus(re, im)) / max(1.0, _max_modulus(*lhs), rhs_max)


def _fused_terms(n: int, orders: tuple) -> tuple:
    """The ``_orbit_terms`` of kernels of ``orders`` on n cells as those of
    one kernel whose orbits and keys run term by term, and each term's
    count of keys; shared by the product checks whose contraction terms
    have these orders."""

    def build():
        terms = [_orbit_terms(n, *order) for order in orders]
        counts = [t[2].shape[1] for t in terms]
        orbits = np.cumsum([0] + [len(orbit_table(n, *order)[1]) for order in orders]).tolist()
        keys = np.cumsum([0] + counts).tolist()
        return (
            np.concatenate([t[0] + start for t, start in zip(terms, orbits)]),
            np.concatenate([t[1] for t in terms]),
            None,
            np.concatenate([t[3] + start for t, start in zip(terms, keys)]),
        ), counts

    return cached_by_shape(("fused-terms", n, orders), build)


def _squares_plan(n: int, orders: Sequence[tuple[int, int]], shapes) -> tuple:
    """The plan of ``_squares_values`` for kernels of ``orders`` on n cells,
    from the ``_shape``s of their expansions."""
    # The budget in the composition's order: each square's product, then
    # the join, counted before any square is planned where the squares
    # have every key (see ``_square_join_pairs``).
    for x in shapes:
        check_budget(len(x.z) ** 2, "a product", len(x.z), len(x.z))
    sizes = _square_keys(n, *orders[0]), _square_keys(n, *orders[-1])
    full = shapes[0].layout[0] == shapes[-1].layout[0] == "expand"
    if full and sizes[0] * sizes[1] > oracle.MAX_TERM_PAIRS:
        check_budget(_square_join_pairs(n, orders[0], orders[-1]), "a Wick join", *sizes)
    squares = [_square_plan(x) for x in shapes]
    join = join_plan(squares[0][0], squares[-1][0])
    kernel_plans = tuple(_kernel_plan(n, *order) for order in orders)
    groups = tuple(group for _, group in squares)
    return kernel_plans, groups, join, tuple(expectation_plan(sq) for sq, _ in squares)


def _squares_values(plan: tuple, parts: list) -> tuple:
    """For one kernel f: E[|I(f)|^4] and E[|I(f)|^2]; for two, f and g:
    E[|I(f)|^2 |I(g)|^2], E[|I(f)|^2] and E[|I(g)|^2].  Real parts only,
    from a plan that starts with a ``_squares_plan`` and the kernels'
    ``_program`` parts.

    The squares keep their zero coefficients, which the composition of
    ChaosPolynomial operations would drop: their products add +-0.0 to the
    oracle's exact sums, which changes none.  (Where another coefficient of
    the squares is inf, they add NaN, not inf; the check fails on either.)"""
    _, groups, join, diagonals = plan[:4]
    squares = [_product_values(x, (x[0], -x[1]), group) for (_, x), group in zip(parts, groups)]
    moments = [diagonal_sum(sq[0], d) for sq, d in zip(squares, diagonals)]
    return (join_sum(join, *squares[0], *squares[-1], imag=False), *moments)


def _squares_program(kernels: tuple[Kernel, ...]) -> tuple:
    """``_squares_values`` of one or two kernels."""
    n, orders = kernels[0].n, [f.order for f in kernels]
    key = ("check", "squares", n, *[k for order in orders for k in order])
    return _squares_values(*_program(key, lambda shapes: _squares_plan(n, orders, shapes), kernels))


def _isometry_program(f: Kernel) -> tuple:
    """The second moment E[|I(f)|^2] and the norm of the symmetrized kernel
    of the isometry check."""

    def build(shapes):
        x = shapes[0]
        return (_kernel_plan(f.n, f.p, f.q),), join_plan(x, _conjugated(x))

    key = ("check", "isometry", f.n, f.p, f.q)
    ((kernel_plan,), join), ((sums, (re, im)),) = _program(key, build, (f,))
    return join_sum(join, re, im, re, -im, imag=False), _norm(orbit_mean(f.coeffs, *kernel_plan[:2], sums))


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
    second_moment, symmetrized_norm = _isometry_program(f)
    target = math.factorial(f.p) * math.factorial(f.q) * symmetrized_norm**2
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


def product_check(
    f: Kernel, g: Kernel, tolerance: float = IDENTITY_TOL
) -> VerificationReport:
    _check_pair(f, g)
    return VerificationReport(
        name="product-formula",
        residual=_product_program(f, g, conjugated=False),
        tolerance=tolerance,
        metadata={"orders": f"{f.order}x{g.order}", "cells": f.n},
    )


def product_conjugated_check(
    f: Kernel, g: Kernel, tolerance: float = IDENTITY_TOL
) -> VerificationReport:
    _check_pair(f, g)
    return VerificationReport(
        name="product-conjugated-formula",
        residual=_product_program(f, g, conjugated=True),
        tolerance=tolerance,
        metadata={"orders": f"{f.order}x{g.order}", "cells": f.n},
    )


# -- covariance of squared moduli ----------------------------------------------

# Which binomial pattern multiplies the plain contraction norms: the display
# in the source lemma and its own proof disagree, and the proof's counting
# argument is what the oracle confirms.
COVARIANCE_VARIANT = "proof-step binomials; same-order contraction terms grouped"


def _covariance_program(f: Kernel, g: Kernel) -> tuple[float, float, dict]:
    """Exact covariance of |integral(f)|^2 and |integral(g)|^2, assembled from
    contraction norms of the symmetrized kernels (the formula) and from the
    Wick oracle on the kernels' own expansions, and the norm of every
    contraction the formula forms: of every admissible (i, j) with
    i + j >= 1, keyed ``("kernel", i, j)`` against g and
    ``("reversed", i, j)`` against g's reversed conjugate.

    The fourth-moment side groups contraction terms with equal total pairing
    count s = i + j before applying the isometry: those terms share a chaos
    and contribute cross inner products, so summing their squared norms
    term-by-term would undercount.  The zero-pairing term minus the product
    of second moments re-expands, by a permutation counting identity, into
    plain contraction norms against g with the proof's binomial pattern.
    The formula runs the arithmetic of ``contract``, ``Kernel`` and
    ``ito_symmetrize`` on bare arrays (``_norm`` reads them in memory order),
    each kernel symmetrized from the orbit sums of its expansion.
    """
    (a, b), (c, d), n = f.order, g.order, f.n

    def build(shapes):
        groups = []
        for s in range(1, min(a, c) + min(b, d) + 1):
            pieces = tuple(
                (("reversed", i, j), hermite.pairing_weight(a, b, d, c, i, j), _contraction_plan(a, b, d, c, i, j))
                for i, j in ((i, s - i) for i in range(min(a, c, s), -1, -1))
                if j <= min(b, d)
            )
            p, q = a + d - s, b + c - s
            groups.append((pieces, *orbit_table(n, p, q)[:2], math.factorial(p) * math.factorial(q)))
        base = math.factorial(a) * math.factorial(b) * math.factorial(c) * math.factorial(d)
        remainder = tuple(
            (
                ("kernel", i, j),
                math.comb(a, i) * math.comb(d, i) * math.comb(b, j) * math.comb(c, j) * base,
                _contraction_plan(a, b, c, d, i, j),
            )
            for i in range(min(a, d) + 1)
            for j in range(min(b, c) + 1)
            if i + j
        )
        return _squares_plan(n, (f.order, g.order), shapes) + (tuple(groups), remainder)

    plan, parts = _program(("check", "covariance", n, a, b, c, d), build, (f, g))
    (f_plan, g_plan), ((f_sums, _), (g_sums, _)) = plan[0], parts
    fs, gs = orbit_mean(f.coeffs, *f_plan[:2], f_sums), orbit_mean(g.coeffs, *g_plan[:2], g_sums)
    h = reversed_conjugate_of(gs, c)
    norms, terms = {}, []
    for pieces, ids, sizes, weight in plan[-2]:
        contractions = [(key, w, contraction(fs, h, n, cp)) for key, w, cp in pieces]
        norms.update((key, _norm(x)) for key, _, x in contractions)
        group = reduce(add, (x * complex(w) for _, w, x in contractions))
        terms.append(weight * _norm(orbit_mean(group, ids, sizes)) ** 2)
    for key, w, cp in plan[-1]:
        norms[key] = _norm(contraction(fs, gs, n, cp))
        terms.append(w * norms[key] ** 2)
    joint, e_f, e_g = _squares_values(plan, parts)
    return math.fsum(terms), joint - e_f * e_g, norms


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
    formula, exact, _ = _covariance_program(f, g)
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
    _check_pair(f, g)
    formula, exact, contractions = _covariance_program(f, g)
    norms = {
        f"with-{against}-{i}{j}": contractions.get((against, i, j), 0.0)
        for against in ("kernel", "reversed")
        for i, j in ((1, 0), (0, 1))
    }
    metadata: dict[str, object] = {
        "orders": f"{f.order}x{g.order}",
        "cells": f.n,
        "covariance_formula": formula,
        "covariance_oracle": exact,
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
    moments, over all exponent patterns of total degree <= max_degree.  Each
    power of I and conj(I) is one product down a chain, as ``__pow__`` forms
    it, and each pattern I**l conj(I)**k one more, with one expectation."""
    tables = []
    for base in (expand(f), expand(g)):
        conj = base.conjugate()
        z = [ChaosPolynomial.constant(1.0, base.n)]
        zc = list(z)
        for _ in range(1, max_degree):
            z.append(z[-1] * base)
            zc.append(zc[-1] * conj)
        mixed = [(l + k, z[l] * zc[k]) for l in range(max_degree) for k in range(max_degree - l) if l + k]
        tables.append([(d, poly, oracle.expectation(poly)) for d, poly in mixed])
    worst = 0.0
    for d1, left, e_left in tables[0]:
        for d2, right, e_right in tables[1]:
            if d1 + d2 <= max_degree:
                worst = worst_of(worst, abs(oracle.pair_expectation(left, right) - e_left * e_right))
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
        kernels = [s.entries[t] for s in seqs]
        pairs = []
        for i, f in enumerate(kernels):
            for j, g in enumerate(kernels):
                if i != j:
                    _, covariance, norms = _covariance_program(f, g)
                    pairs.append(PairDiagnostics((i, j), worst_of(0.0, *norms.values()), covariance))
        moments = [_isometry_program(k)[0] for k in kernels]
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
    m4, m2 = _squares_program((f,))
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
