"""Exact expectation engine for polynomials in independent standard complex
Gaussian coordinates.

The moment rule is the whole module: for z_1..z_n iid with independent real
and imaginary parts of variance 1/2,

    E[ prod_k z_k**a_k conj(z_k)**b_k ] = prod_k [a_k == b_k] * a_k!

Everything else is linear extension with exact, correctly rounded sums (see
``exact_sum``), plus a numerical quadrature cross-check that keeps the rule
honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .kernels import MAX_CELLS, cached_by_shape

if TYPE_CHECKING:  # pragma: no cover
    from .chaos import ChaosPolynomial

__all__ = [
    "MAX_TERM_PAIRS",
    "MomentQuery",
    "WorkBudgetError",
    "exact_sum",
    "expectation",
    "monomial_expectation",
    "pair_expectation",
    "quadrature_monomial_expectation",
]

# Exact integer factorials; the arbiter must not round.
_FACTORIALS: tuple[int, ...] = tuple(math.factorial(k) for k in range(129))

# Exponent keys of ChaosPolynomial: a monomial's z-exponents and its
# conjugate exponents are packed into one int64 word each, cell k in the
# 7-bit digit at bit 7k, so MAX_CELLS = 8 cells take 56 bits.
DIGIT = 7
MAX_EXPONENT = (1 << DIGIT) - 1
_SHIFTS = [DIGIT * np.arange(n) for n in range(MAX_CELLS + 1)]
# The lowest bit of every digit but the first: a digit's carry shows there,
# in its upper neighbour, in a ^ b ^ (a + b).
_CARRIES = sum(1 << DIGIT * k for k in range(1, MAX_CELLS + 1))


# Term pairs one polynomial product or one Wick join may form.  The first
# product of a layout peaks at about 60 bytes of RSS per pair (keys, grouping
# and the complex products), so this bounds a product near 1 GB; the README
# gives the time and memory of the largest squares it accepts.
MAX_TERM_PAIRS = 1 << 24


class WorkBudgetError(ValueError):
    """A polynomial product or Wick join past ``MAX_TERM_PAIRS`` term pairs,
    refused before anything is allocated."""


def check_budget(pairs: int, what: str, left: int, right: int) -> None:
    """Raise WorkBudgetError if ``what`` ("a product", "a Wick join") of
    ``left`` x ``right`` terms forms more than MAX_TERM_PAIRS term pairs;
    the bound is inclusive."""
    if pairs > MAX_TERM_PAIRS:
        raise WorkBudgetError(
            f"{what} of {left} x {right} terms forms {pairs} term pairs, "
            f"past the work budget of {MAX_TERM_PAIRS}"
        )


def key_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Keys of the products of the monomials keyed ``a`` and ``b`` (which
    broadcast).  A digit that would pass MAX_EXPONENT raises ValueError
    instead of carrying into the next cell."""
    total = a + b
    if np.count_nonzero((a ^ b ^ total) & _CARRIES):
        raise ValueError(f"an exponent would pass {MAX_EXPONENT}")
    return total


def unpack(keys: np.ndarray, n: int) -> np.ndarray:
    """(len(keys), n) array of the exponents packed in ``keys``."""
    return keys[:, None] >> _SHIFTS[n] & MAX_EXPONENT


def pack(exps: np.ndarray) -> np.ndarray:
    """Keys of the rows of the (count, n) exponent array ``exps``, whose
    entries lie in 0..MAX_EXPONENT; ``unpack`` inverts it."""
    return (exps << _SHIFTS[exps.shape[1]]).sum(axis=1)


def cmul_real(xr, xi, yr, yi):
    """Real part of ``cmul``, alone."""
    return xr * yr - xi * yi


def cmul(xr, xi, yr, yi):
    """Complex product from real and imaginary parts, rounded as Python's
    complex ``*`` rounds it; numpy's complex ``*`` rounds differently.  A
    conjugated factor is passed as ``yr, -yi``: x - (-y) is x + y exactly."""
    return cmul_real(xr, xi, yr, yi), xr * yi + xi * yr


@dataclass(frozen=True)
class MomentQuery:
    """Exponent vectors (a_1..a_n for the z's, b_1..b_n for the conjugates)."""

    z_powers: tuple[int, ...]
    conj_powers: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.z_powers) != len(self.conj_powers):
            raise ValueError("exponent vectors must have equal length")


def _monomial_expectation(a: Sequence[int], b: Sequence[int]) -> int:
    value = 1
    for ak, bk in zip(a, b):
        if ak != bk:
            return 0
        value *= _FACTORIALS[ak]
    return value


def monomial_expectation(query: MomentQuery) -> int:
    return _monomial_expectation(query.z_powers, query.conj_powers)


# k! as floats, exact up to 18!, the last one below 2**53; larger ones are
# held at 2**53, so that a product of MAX_CELLS of them cannot overflow.
_FLOAT_FACTORIALS = np.minimum([float(f) for f in _FACTORIALS[: MAX_EXPONENT + 1]], 2.0**53)


def _weights(keys: np.ndarray, n: int) -> np.ndarray:
    """prod_k a_k! for the exponents a packed in each key: the exact integer,
    rounded to float once.  The float product of the factorials is that
    number when it stays below 2**53, since every factor and partial product
    is then an integer a float holds exactly; the others are redone in
    integers."""
    exps = unpack(keys, n)
    weights = np.multiply.reduce(_FLOAT_FACTORIALS[exps], axis=1)
    large = weights >= 2.0**53
    if np.count_nonzero(large):
        weights[large] = [
            float(math.prod(_FACTORIALS[a] for a in row)) for row in exps[large].tolist()
        ]
    return weights


# Float64 arrays of at least this many values are summed by ``_array_sum``;
# below it ``math.fsum`` of the list is faster.
_ARRAY_SUM_MIN = 1000
# Values ``_array_sum`` splits at once: 2**14 keeps each temporary at 128 KiB,
# the fastest size measured.  It must stay at most 2**21, so that a digit's
# bincount of values below 2**32 is an exact integer in float64.
_ARRAY_SUM_CHUNK = 1 << 14
# A value is ``m * 2**(e - 53)`` with ``m, e = frexp(value)`` and the integer
# ``m * 2**53``; ``e + 1073`` is never negative, even for subnormals, so the
# integers ``_array_sum`` adds are the values times _SCALE.
_EXP_OFFSET = 1073
_SCALE = 1 << _EXP_OFFSET + 53
_DIGIT_BITS = 10


def exact_sum(values: Iterable[float]) -> float:
    """``math.fsum`` of the values, or NaN where it raises: on inf + -inf or
    on an exact sum past the float range.

    A float64 array of ``_ARRAY_SUM_MIN`` values or more is summed exactly in
    integers by ``_array_sum`` and rounded once; the result is correctly
    rounded, as fsum's is, so it is the same float."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64 and values.ndim == 1 and len(values) >= _ARRAY_SUM_MIN:
            total = _array_sum(values)
            if total is not None:
                return total
        values = values.tolist()
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


def _array_sum(values: np.ndarray) -> float | None:
    """The sum of the float64 array ``values``, correctly rounded (half to
    even), or None where ``math.fsum`` must decide: a value that is not
    finite, a sum whose partials could leave the float range, or values that
    are all zeros, whose sign follows fsum's rules.  Nonzero values that
    cancel exactly sum to +0.0, as in fsum.

    Each value is an integer mantissa below 2**53 times a power of two.  The
    exponent splits into a 10-bit digit and a shift of at most 9, which the
    mantissa takes (staying below 2**62); the shifted mantissa splits at bit
    32, and each half is summed per digit by a float64 ``bincount``, exact
    for up to 2**21 values.  The digit sums are added as Python integers,
    and one integer division rounds the total.
    """
    if not np.abs(values).max() < 2.0**1020 / len(values):  # also NaN and inf
        return None
    total = 0
    for s in range(0, len(values), _ARRAY_SUM_CHUNK):
        mant, exp = np.frexp(values[s : s + _ARRAY_SUM_CHUNK])
        ints = (mant * 2.0**53).astype(np.int64)
        exp += _EXP_OFFSET
        digit = exp // _DIGIT_BITS
        ints <<= exp - _DIGIT_BITS * digit
        high = np.bincount(digit, ints >> 32)
        low = np.bincount(digit, ints & 0xFFFFFFFF)
        used = np.flatnonzero(np.logical_or(high, low))
        for d, h, l in zip(used.tolist(), high[used].tolist(), low[used].tolist()):
            total += ((int(h) << 32) + int(l)) << _DIGIT_BITS * d
    if total:
        return total / _SCALE
    return 0.0 if np.count_nonzero(values) else None


def _diagonal(poly: "ChaosPolynomial") -> tuple[np.ndarray, np.ndarray]:
    """Indices of the terms with a nonzero expectation, and their weights."""
    diagonal = np.flatnonzero(poly.z == poly.zc)
    return diagonal, _weights(poly.z[diagonal], poly.n)


def expectation_plan(poly: "ChaosPolynomial") -> tuple[np.ndarray, np.ndarray]:
    """The ``_diagonal`` of ``poly``, planned once per layout."""
    return cached_by_shape(("expectation", poly.layout), lambda: _diagonal(poly))


def diagonal_sum(values: np.ndarray, plan: tuple) -> float:
    """One part (real or imaginary) of an expectation: the exact sum of the
    diagonal ``values`` times their weights (see ``expectation_plan``)."""
    diagonal, w = plan
    return exact_sum(values[diagonal] * w)


def expectation(poly: "ChaosPolynomial") -> complex:
    """Linear extension of the monomial rule, summed exactly (NaN where the
    exact sum leaves the float range)."""
    plan = expectation_plan(poly)
    return complex(diagonal_sum(poly.re, plan), diagonal_sum(poly.im, plan))


# Term pairs a join evaluates at once.
_JOIN_BLOCK = 1 << 16


def _join(left: "ChaosPolynomial", right: "ChaosPolynomial") -> tuple[np.ndarray, ...]:
    """The term pairs whose z-exponent surpluses cancel and their weights.

    The right terms are sorted by their packed surplus and each left term
    finds its matches by binary search.  The matches are counted first, and
    more than MAX_TERM_PAIRS of them raise WorkBudgetError before any pair
    is formed.  Packed surpluses can also agree for a pair whose exponent
    sums pass MAX_EXPONENT; such a pair raises ValueError.  Returned
    compactly, since ``cached_by_shape`` keeps it: the pairs as the rows
    (li, ri) of one (2, pairs) int32 array, the distinct weights, and each
    pair's index among them in the smallest unsigned type.
    """
    want = left.z - left.zc
    surplus = right.zc - right.z
    order = surplus.argsort(kind="stable").astype(np.int32)
    surplus = surplus[order]
    lo = surplus.searchsorted(want, "left")
    hits = surplus.searchsorted(want, "right") - lo
    check_budget(int(hits.sum()), "a Wick join", len(left.z), len(right.z))
    li = np.arange(len(want), dtype=np.int32).repeat(hits)
    pairs = np.stack((li, order[np.arange(len(li)) + (lo - hits.cumsum() + hits).repeat(hits)]))
    weights = np.empty(len(li))
    for s in range(0, len(li), _JOIN_BLOCK):
        l, r = pairs[0, s : s + _JOIN_BLOCK], pairs[1, s : s + _JOIN_BLOCK]
        key_sum(left.zc[l], right.zc[r])
        weights[s : s + _JOIN_BLOCK] = _weights(key_sum(left.z[l], right.z[r]), left.n)
    table, index = np.unique(weights, return_inverse=True)
    return pairs, table, index.astype(np.min_scalar_type(len(table)))


def join_plan(left: "ChaosPolynomial", right: "ChaosPolynomial") -> tuple[np.ndarray, ...]:
    """The ``_join`` of two polynomials, planned once per pair of layouts."""
    return cached_by_shape(("pair", left.layout, right.layout), lambda: _join(left, right))


def join_sum(plan: tuple, lr, li, rr, ri, imag: bool = True):
    """E[left * right] from the parts ``lr, li`` and ``rr, ri`` of the two
    polynomials' coefficients and their ``join_plan``: the exact sums of the
    real and imaginary parts of every joined term pair's product times its
    weight, or with ``imag=False`` the real sum alone."""
    pairs, table, index = plan
    re = np.empty(len(index))
    im = np.empty(len(index)) if imag else None
    for s in range(0, len(index), _JOIN_BLOCK):
        l, r = pairs[0, s : s + _JOIN_BLOCK], pairs[1, s : s + _JOIN_BLOCK]
        w = table.take(index[s : s + _JOIN_BLOCK])
        x, y = (lr.take(l), li.take(l)), (rr.take(r), ri.take(r))
        if imag:
            vr, vi = cmul(*x, *y)
            np.multiply(vi, w, out=im[s : s + _JOIN_BLOCK])
        else:
            vr = cmul_real(*x, *y)
        np.multiply(vr, w, out=re[s : s + _JOIN_BLOCK])
    return complex(exact_sum(re), exact_sum(im)) if imag else exact_sum(re)


def pair_expectation(left: "ChaosPolynomial", right: "ChaosPolynomial") -> complex:
    """E[left * right] without materializing the product.

    A pair of monomials contributes only when the z-exponent surplus of one
    cancels the other (a1 - b1 == b2 - a2 componentwise).  The pairs are
    joined once per pair of layouts (see ``_join``) and summed exactly, NaN
    where the exact sum leaves the float range.  A join of more than
    MAX_TERM_PAIRS pairs raises WorkBudgetError.
    """
    if left.n != right.n:
        raise ValueError("variable count mismatch")
    return join_sum(join_plan(left, right), left.re, left.im, right.re, right.im)


def quadrature_monomial_expectation(a: int, b: int, points: int = 48) -> complex:
    """Brute 2-D Gauss-Hermite quadrature of z**a conj(z)**b against the
    standard complex Gaussian density, for cross-checking the moment rule."""
    nodes, weights = np.polynomial.hermite.hermgauss(points)
    x = nodes[:, None]
    y = nodes[None, :]
    w = weights[:, None] * weights[None, :]
    z = x + 1j * y
    values = w * z**a * np.conj(z) ** b
    return complex(values.sum() / math.pi)
