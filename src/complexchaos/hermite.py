"""Complex Hermite polynomials (the Hermite-Laguerre-Ito family).

``build(m, n, rho)`` constructs the polynomial obtained by applying m copies
of the creation operator  (C phi)(z) = -d phi/d zbar + (z / rho) phi  and n
copies of its conjugate  (Cbar phi)(z) = -d phi/d z + (zbar / rho) phi  to
the constant 1, scaled by rho**(m+n).  The two operators commute, the leading
term is z**m zbar**n, and the family is orthogonal for a centered complex
Gaussian with E[z zbar] = rho.

Products of two members expand back into the family with binomial-factorial
weights.  That expansion is exact at rho = 1 and only there, which
``resolve_rho`` certifies by symbolic multiplication instead of trusting any
convention.  Coefficients are exact integers whenever rho is an integer
(Fraction arithmetic internally), with a float fallback otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, Union

__all__ = [
    "HermitePolynomial",
    "build",
    "certify_product_formula",
    "evaluate",
    "format_polynomial",
    "hermite_product",
    "normalization_residuals",
    "order_tuples",
    "pairing_weight",
    "resolve_rho",
]

Scalar = Union[int, float, Fraction]
Terms = Mapping[tuple[int, int], Scalar]


@dataclass(frozen=True)
class HermitePolynomial:
    """Sparse polynomial in (z, zbar): ``terms[(a, b)]`` multiplies z**a zbar**b.

    Every nonzero term satisfies a - b == m - n and a + b <= m + n; the
    leading coefficient at (m, n) is 1.
    """

    m: int
    n: int
    rho: Scalar
    terms: Terms

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))


def _exact_rho(rho: Scalar) -> tuple[Scalar, Scalar]:
    """Pick the working arithmetic: (one, rho) as Fractions when exact."""
    if isinstance(rho, int) or isinstance(rho, Fraction):
        return Fraction(1), Fraction(rho)
    return 1.0, float(rho)


def _apply_create(terms: dict, rho: Scalar, conjugated: bool) -> dict:
    """One application of the creation operator (conjugated variant swaps the
    roles of z and zbar)."""
    out: dict = {}

    def add(key, value):
        acc = out.get(key, 0) + value
        if acc == 0:
            out.pop(key, None)
        else:
            out[key] = acc

    for (a, b), c in terms.items():
        if conjugated:
            if a:
                add((a - 1, b), -a * c)
            add((a, b + 1), c / rho)
        else:
            if b:
                add((a, b - 1), -b * c)
            add((a + 1, b), c / rho)
    return out


def _as_plain(value: Scalar) -> Scalar:
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


@lru_cache(maxsize=None)
def _build_cached(m: int, n: int, rho: Scalar) -> HermitePolynomial:
    one, work_rho = _exact_rho(rho)
    terms: dict = {(0, 0): one}
    for _ in range(n):
        terms = _apply_create(terms, work_rho, conjugated=True)
    for _ in range(m):
        terms = _apply_create(terms, work_rho, conjugated=False)
    scale = work_rho ** (m + n)
    final = {key: _as_plain(c * scale) for key, c in terms.items()}
    return HermitePolynomial(m, n, rho, final)


def build(m: int, n: int, rho: Scalar = 1) -> HermitePolynomial:
    """Degree-(m, n) member of the family at variance parameter rho > 0.

    Built by symbolic operator application, not from a closed form, so tests
    can check the closed form independently.  Results are cached; cached
    instances are immutable and safe to share.
    """
    if m < 0 or n < 0:
        raise ValueError("degrees must be non-negative")
    if not (isinstance(rho, (int, Fraction)) and rho > 0 or float(rho) > 0):
        raise ValueError("rho must be positive")
    if isinstance(rho, float) and rho.is_integer():
        rho = int(rho)
    return _build_cached(m, n, rho)


def evaluate(h: HermitePolynomial, z: complex) -> complex:
    zbar = z.conjugate() if isinstance(z, complex) else complex(z).conjugate()
    z = complex(z)
    return sum((complex(c) * z**a * zbar**b for (a, b), c in h.terms.items()), 0j)


def pairing_weight(a: int, b: int, c: int, d: int, i: int, j: int) -> int:
    """C(a,i) C(d,i) C(b,j) C(c,j) i! j!: the number of ways to pair i of the
    a slots with i of the d slots and j of the b slots with j of the c slots."""
    return (
        math.comb(a, i) * math.comb(d, i) * math.factorial(i)
        * math.comb(b, j) * math.comb(c, j) * math.factorial(j)
    )


def order_tuples(max_total: int, width: int = 4) -> Iterator[tuple[int, ...]]:
    """All tuples of ``width`` degrees, such as (a, b, c, d), whose sum is at
    most max_total, in lexicographic order."""
    if width == 0:
        yield ()
        return
    for first in range(max_total + 1):
        for rest in order_tuples(max_total - first, width - 1):
            yield (first,) + rest


def hermite_product(a: int, b: int, c: int, d: int) -> dict[tuple[int, int], int]:
    """Expansion weights of product(J_{a,b}, J_{c,d}) in the family basis.

    The (i, j) pairing term lands on degree (a+c-i-j, b+d-i-j) with weight
    ``pairing_weight(a, b, c, d, i, j)``; pairings with the same target degree
    accumulate.  Exact at the certified normalization rho = 1.
    """
    table: dict[tuple[int, int], int] = {}
    for i in range(min(a, d) + 1):
        for j in range(min(b, c) + 1):
            key = (a + c - i - j, b + d - i - j)
            table[key] = table.get(key, 0) + pairing_weight(a, b, c, d, i, j)
    return table


# -- residual folds ----------------------------------------------------------


def worst_of(*values: float, pick=max) -> float:
    """``pick`` (max by default) of the values, or NaN if any of them is NaN
    or infinite, so that a fold over residuals cannot drop a non-finite one:
    plain ``max(0.0, nan)`` is ``0.0`` and would let the report pass.  It
    lives here, in the module that imports no other of the package, so that
    every module's folds can share it (``chaos`` re-exports it)."""
    if all(math.isfinite(v) for v in values):
        return pick(values)
    return math.nan


# -- polynomial scratch arithmetic on plain term dicts -----------------------


def _poly_mul(t1: Terms, t2: Terms) -> dict:
    out: dict = {}
    for (a1, b1), c1 in t1.items():
        for (a2, b2), c2 in t2.items():
            key = (a1 + a2, b1 + b2)
            acc = out.get(key, 0) + c1 * c2
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
    return out


def _poly_axpy(acc: dict, weight: Scalar, terms: Terms) -> None:
    for key, c in terms.items():
        value = acc.get(key, 0) + weight * c
        if value == 0:
            acc.pop(key, None)
        else:
            acc[key] = value


def _poly_max_abs_diff(t1: Terms, t2: Terms) -> float:
    keys = set(t1) | set(t2)
    return worst_of(0.0, *(abs(t1.get(k, 0) - t2.get(k, 0)) for k in keys))


def certify_product_formula(max_total: int = 8, rho: Scalar = 1) -> float:
    """Max absolute coefficient residual of the product expansion over all
    degree tuples with a + b + c + d <= max_total.  Exactly 0.0 at rho = 1."""
    worst = 0.0
    for a, b, c, d in order_tuples(max_total):
        lhs = _poly_mul(build(a, b, rho).terms, build(c, d, rho).terms)
        rhs: dict = {}
        for (m, n), w in hermite_product(a, b, c, d).items():
            _poly_axpy(rhs, w, build(m, n, rho).terms)
        worst = worst_of(worst, float(_poly_max_abs_diff(lhs, rhs)))
    return worst


def normalization_residuals(max_total: int = 6) -> tuple[dict, float]:
    """What the product expansion leaves at rho = 1: the terms left of the
    probe product(J_{1,0}, J_{0,1}) (the constant rho - 1 at any other rho)
    and the residual of the grid up to ``max_total``."""
    probe: dict = dict(_poly_mul(build(1, 0, 1).terms, build(0, 1, 1).terms))
    for (m, n), w in hermite_product(1, 0, 0, 1).items():
        _poly_axpy(probe, -w, build(m, n, 1).terms)
    return probe, certify_product_formula(max_total, rho=1)


def resolve_rho(max_total: int = 6) -> int:
    """Certify rho = 1, where ``normalization_residuals`` leaves nothing;
    any residual raises."""
    probe, residual = normalization_residuals(max_total)
    if probe:
        raise AssertionError(f"normalization probe left residual terms {probe}")
    if residual != 0.0:
        raise AssertionError(f"product expansion not exact at rho=1: {residual}")
    return 1


def format_polynomial(h: HermitePolynomial) -> str:
    """Human-readable form like ``z^2*zb^2 - 4*z*zb + 2``."""
    if not h.terms:
        return "0"
    parts = []
    for (a, b) in sorted(h.terms, key=lambda k: (-(k[0] + k[1]), -k[0])):
        c = h.terms[(a, b)]
        body = "*".join(
            ([f"z^{a}" if a > 1 else "z"] if a else [])
            + ([f"zb^{b}" if b > 1 else "zb"] if b else [])
        )
        mag = abs(c)
        coeff = "" if mag == 1 and body else str(_as_plain(mag))
        text = f"{coeff}*{body}" if coeff and body else (coeff or body)
        sign = "-" if c < 0 else "+"
        parts.append((sign, text))
    first_sign, first = parts[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, text in parts[1:]:
        out += f" {sign} {text}"
    return out
