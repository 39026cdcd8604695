"""Exact expectation engine for polynomials in independent standard complex
Gaussian coordinates.

The moment rule is the whole module: for z_1..z_n iid with independent real
and imaginary parts of variance 1/2,

    E[ prod_k z_k**a_k conj(z_k)**b_k ] = prod_k [a_k == b_k] * a_k!

Everything else is linear extension with error-tracked accumulation, plus a
numerical quadrature cross-check that keeps the rule honest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .kernels import MAX_CELLS

if TYPE_CHECKING:  # pragma: no cover
    from .chaos import ChaosPolynomial

__all__ = [
    "MomentQuery",
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


def cmul(xr, xi, yr, yi):
    """Complex product from real and imaginary parts, rounded as Python's
    complex ``*`` rounds it; numpy's complex ``*`` rounds differently."""
    return xr * yr - xi * yi, xr * yi + xi * yr


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


def expectation(poly: "ChaosPolynomial") -> complex:
    """Linear extension of the monomial rule, fsum-accumulated."""
    diagonal = poly.z == poly.zc
    w = _weights(poly.z[diagonal], poly.n)
    return complex(
        math.fsum((poly.re[diagonal] * w).tolist()), math.fsum((poly.im[diagonal] * w).tolist())
    )


# Term pairs a join materializes at once.
_JOIN_BLOCK = 1 << 16


def _matches(left: "ChaosPolynomial", right: "ChaosPolynomial") -> Iterator[tuple]:
    """Index arrays (li, ri) of the term pairs whose z-exponent surpluses
    cancel, left-major, in blocks of at most _JOIN_BLOCK pairs (or of one
    left term).  Few pairs are compared all at once; otherwise the right
    terms are sorted by their packed surplus and each left term finds its
    matches by binary search."""
    want = left.z - left.zc
    surplus = right.zc - right.z
    if len(want) * len(surplus) <= _JOIN_BLOCK:
        yield np.nonzero(want[:, None] == surplus)
        return
    order = surplus.argsort(kind="stable")
    surplus = surplus[order]
    lo = surplus.searchsorted(want, "left")
    hits = surplus.searchsorted(want, "right") - lo
    ends = hits.cumsum()
    offset = lo - ends + hits  # right position minus match number
    start = 0
    while start < len(hits):
        base = int(ends[start] - hits[start])
        stop = max(int(ends.searchsorted(base + _JOIN_BLOCK, "right")), start + 1)
        times = hits[start:stop]
        li = np.arange(start, stop).repeat(times)
        yield li, order[np.arange(base, int(ends[stop - 1])) + offset[start:stop].repeat(times)]
        start = stop


def pair_expectation(left: "ChaosPolynomial", right: "ChaosPolynomial") -> complex:
    """E[left * right] without materializing the product.

    A pair of monomials contributes only when the z-exponent surplus of one
    cancels the other (a1 - b1 == b2 - a2 componentwise).  Pairs are matched
    on packed surpluses, which can also agree for a pair whose exponent sums
    pass MAX_EXPONENT; such a pair raises ValueError.
    """
    if left.n != right.n:
        raise ValueError("variable count mismatch")
    re: list[np.ndarray] = []
    im: list[np.ndarray] = []
    for li, ri in _matches(left, right):
        z = key_sum(left.z[li], right.z[ri])
        key_sum(left.zc[li], right.zc[ri])
        w = _weights(z, left.n)
        vr, vi = cmul(left.re[li], left.im[li], right.re[ri], right.im[ri])
        re.append(vr * w)
        im.append(vi * w)
    return complex(_fsum(re), _fsum(im))


def _fsum(blocks: list[np.ndarray]) -> float:
    return math.fsum(itertools.chain.from_iterable(block.tolist() for block in blocks))


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
