"""Discrete control measures and complex kernel tensors.

A kernel of order (p, q) is a dense complex tensor over the cells of a
discretized control measure, stored in the orthonormal cell basis
e_i = 1_{E_i} / sqrt(mu(E_i)).  In this basis the Hilbert space norm, the
inner product and all contractions reduce to plain index algebra, so no
measure weights appear in any inner loop.  Storage is dense with hard caps
on order and cell count (n**(p+q) entries).  Symmetrizations and the chaos
expansion share one orbit table: every multi-index is labelled by the
multisets of cells in its slot blocks, and symmetrizing replaces each entry
by the mean over its orbit, which equals the average over all permutations
within the blocks without enumerating them.

All operations are pure functions of immutable values; kernels are safe to
share between threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "MAX_CELLS",
    "MAX_TOTAL_ORDER",
    "ContractionSpec",
    "DiscreteMeasure",
    "Kernel",
    "contract",
    "indicator_to_orthonormal",
    "inner",
    "ito_symmetrize",
    "norm",
    "ordinary_symmetrize",
    "random_kernel",
    "reversed_conjugate",
]

# Dense storage blows up as n**(p+q); these caps keep everything enumerable.
MAX_TOTAL_ORDER = 8
MAX_CELLS = 8


@dataclass(frozen=True)
class DiscreteMeasure:
    """Masses mu(E_1), ..., mu(E_n) of the disjoint cells of a discretized
    control measure.  Cells are identified by their index."""

    masses: tuple[float, ...]

    def __init__(self, masses: Sequence[float]) -> None:
        cells = tuple(float(m) for m in masses)
        if not cells:
            raise ValueError("a discrete measure needs at least one cell")
        if len(cells) > MAX_CELLS:
            raise ValueError(f"cell count {len(cells)} exceeds cap {MAX_CELLS}")
        for m in cells:
            if not math.isfinite(m) or m <= 0.0:
                raise ValueError(f"cell masses must be positive and finite, got {m!r}")
        object.__setattr__(self, "masses", cells)

    @property
    def n(self) -> int:
        return len(self.masses)


@dataclass(frozen=True, eq=False)
class Kernel:
    """An order-(p, q) coefficient tensor in orthonormal cell coordinates.

    ``coeffs[i_1, ..., i_p, j_1, ..., j_q]`` multiplies
    e_{i_1} x ... x e_{i_p} x e_{j_1} x ... x e_{j_q}, where the first block
    feeds the p unconjugated integrator slots and the second block the q
    conjugated ones.  A (0, 0) kernel is a bare complex scalar (0-d array).
    Repeated cell indices are allowed; the chaos expansion resolves them
    through Hermite multiplicities.
    """

    p: int
    q: int
    n: int
    coeffs: np.ndarray

    def __init__(self, p: int, q: int, n: int, coeffs) -> None:
        if p < 0 or q < 0:
            raise ValueError("orders must be non-negative")
        if p + q > MAX_TOTAL_ORDER:
            raise ValueError(f"total order {p + q} exceeds cap {MAX_TOTAL_ORDER}")
        if not 1 <= n <= MAX_CELLS:
            raise ValueError(f"cell count {n} outside 1..{MAX_CELLS}")
        arr = np.array(coeffs, dtype=np.complex128)
        expected = (n,) * (p + q)
        if arr.shape != expected:
            raise ValueError(f"coefficient shape {arr.shape} != {expected}")
        arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def _adopt(cls, p: int, q: int, n: int, arr) -> "Kernel":
        """Kernel that takes ``arr`` over without copying or checking it: a
        complex128 array of shape (n,)*(p+q) that the caller has just built
        and keeps no other reference to (a numpy scalar becomes a 0-d
        array).  The array is made read-only and keeps its strides, which
        are those the public constructor's copy would give it."""
        arr = np.asarray(arr)
        arr.setflags(write=False)
        kernel = cls.__new__(cls)
        kernel.__dict__.update(p=p, q=q, n=n, coeffs=arr)
        return kernel

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, p: int, q: int, n: int) -> "Kernel":
        return cls(p, q, n, np.zeros((n,) * (p + q), dtype=np.complex128))

    @classmethod
    def scalar(cls, value: complex, n: int = 1) -> "Kernel":
        return cls(0, 0, n, np.asarray(complex(value)))

    @classmethod
    def basis(cls, p: int, q: int, indices: Sequence[int], n: int) -> "Kernel":
        """Elementary tensor e_{i_1} x ... x e_{j_q} for the given cell indices."""
        if len(indices) != p + q:
            raise ValueError("need p + q cell indices")
        arr = np.zeros((n,) * (p + q), dtype=np.complex128)
        arr[tuple(indices)] = 1.0
        return cls(p, q, n, arr)

    @classmethod
    def from_entries(
        cls, p: int, q: int, n: int, entries: Mapping[tuple[int, ...], complex]
    ) -> "Kernel":
        """Sparse construction; omitted multi-indices are zero."""
        arr = np.zeros((n,) * (p + q), dtype=np.complex128)
        for idx, value in entries.items():
            if len(idx) != p + q:
                raise ValueError(f"multi-index {idx} has length != {p + q}")
            arr[tuple(idx)] = complex(value)
        return cls(p, q, n, arr)

    # -- linear structure ----------------------------------------------------

    @property
    def order(self) -> tuple[int, int]:
        return (self.p, self.q)

    def _check_same_shape(self, other: "Kernel") -> None:
        if self.order != other.order or self.n != other.n:
            raise ValueError(
                f"shape mismatch: {self.order}/{self.n} vs {other.order}/{other.n}"
            )

    def __add__(self, other: "Kernel") -> "Kernel":
        self._check_same_shape(other)
        return Kernel._adopt(self.p, self.q, self.n, self.coeffs + other.coeffs)

    def __sub__(self, other: "Kernel") -> "Kernel":
        self._check_same_shape(other)
        return Kernel._adopt(self.p, self.q, self.n, self.coeffs - other.coeffs)

    def __neg__(self) -> "Kernel":
        return Kernel._adopt(self.p, self.q, self.n, -self.coeffs)

    def __mul__(self, scalar: complex) -> "Kernel":
        return Kernel._adopt(self.p, self.q, self.n, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def isclose(self, other: "Kernel", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        if self.order != other.order or self.n != other.n:
            return False
        return bool(np.allclose(self.coeffs, other.coeffs, rtol=rtol, atol=atol))

    def __repr__(self) -> str:  # concise, the tensor itself can be large
        return f"Kernel(p={self.p}, q={self.q}, n={self.n}, norm={norm(self):.6g})"


@dataclass(frozen=True)
class ContractionSpec:
    """How many slot pairings to integrate out: ``i`` pairs a first-block slot
    of the left kernel with a second-block slot of the right kernel, ``j`` the
    other way around.  Inadmissible (i, j) yield the zero kernel by convention.
    """

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i < 0 or self.j < 0:
            raise ValueError("contraction counts must be non-negative")


# Per-shape tables (orbit tables here; expansion arrays and the plans of
# polynomial operations in chaos and oracle) share one byte budget with
# least-recently-used eviction; the newest entry always stays.  One orbit
# table at the caps, (8,0) or (4,4) on 8 cells, takes 128 MiB.
_CACHE_BYTES = 256 << 20


class _ShapeCache(OrderedDict):
    """Entries ``key: (arrays, bytes)``, least recently used first, with the
    running byte total of all of them in ``nbytes``."""

    nbytes = 0

    def clear(self) -> None:
        super().clear()
        self.nbytes = 0


_SHAPE_CACHE = _ShapeCache()
_CACHE_LOCK = threading.Lock()


def _nbytes(value) -> int:
    """Bytes of the arrays in ``value``, an array or a nest of tuples."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(map(_nbytes, value))
    return 0


def cached_by_shape(key: tuple, build: Callable[[], tuple]) -> tuple:
    """``build()``'s tuple, built once per ``key`` and kept under the budget,
    which counts the arrays in it and in its nested tuples, not the bytes a
    key holds.  Safe to call from several threads; two may build the same
    entry."""
    cache = _SHAPE_CACHE
    with _CACHE_LOCK:
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            return hit[0]
    arrays = build()
    size = _nbytes(arrays)
    with _CACHE_LOCK:
        old = cache.pop(key, None)
        cache[key] = (arrays, size)
        cache.nbytes += size - (old[1] if old else 0)
        while cache.nbytes > _CACHE_BYTES and len(cache) > 1:
            cache.nbytes -= cache.popitem(last=False)[1][1]
    return arrays


# Block positions whose multisets ``orbit_table`` ranks at once, and the
# most entries that ``orbit_sums`` ravels in one piece.
_RANK_CHUNK = 1 << 18


def _block_ranks(n: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Multisets of ``size`` cells out of n, as count vectors, and the rank
    among them of every position of a block of ``size`` slots (C order).

    A multiset is coded by its count vector in base size + 1, cell 0 most
    significant; a larger code has a smaller sorted representative, and the
    multisets are ranked from the largest code down.  Positions are coded
    and ranked by binary search in chunks of at most _RANK_CHUNK, so no
    temporary is larger than the ranks."""
    combos = list(itertools.combinations_with_replacement(range(n), size))
    combos = np.array(combos, dtype=np.int64).reshape(len(combos), size)
    counts = np.zeros((len(combos), n), dtype=np.int64)
    rows = np.arange(len(combos))
    for column in combos.T:
        np.add.at(counts, (rows, column), 1)
    weight = (size + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = counts @ weight
    order = np.argsort(-codes, kind="stable")
    counts, ascending = counts[order], codes[order][::-1].copy()
    # Positions run as (head, tail): the leading slots, then at most
    # _RANK_CHUNK positions of the trailing ones.
    split = next(k for k in range(size + 1) if n ** (size - k) <= _RANK_CHUNK)
    tail = np.zeros((n,) * (size - split), dtype=np.int64)
    for axis in range(size - split):
        tail += weight.reshape((n,) + (1,) * (size - split - 1 - axis))
    tail = tail.ravel()
    ranks = np.empty(n**size, dtype=np.int64)
    for h, head in enumerate(itertools.product(weight.tolist(), repeat=split)):
        chunk = ranks[h * len(tail) : (h + 1) * len(tail)]
        np.subtract(len(codes) - 1, ascending.searchsorted(tail + sum(head)), out=chunk)
    return counts, ranks


def orbit_table(n: int, p: int, q: int) -> tuple[np.ndarray, ...]:
    """Orbits of the multi-indices of an (n,)*(p+q) tensor under permutations
    within the first p slots and, separately, the last q slots.

    Returns the orbit id of every flat (C-order) position, the size of every
    orbit, and every orbit's representative as two (orbits, n) arrays: the
    per-cell slot counts of its first and of its second block.  Orbits are
    numbered in lexicographic order of their sorted representatives (sorted
    first block, sorted second block).

    Every pair of a first-block multiset and a second-block multiset is an
    orbit, so an orbit's id is its first block's rank times the count of
    second-block multisets plus its second block's rank (see
    ``_block_ranks``), and no sort over all n**(p+q) positions is needed.
    """

    def build():
        left, first = _block_ranks(n, p)
        right, second = _block_ranks(n, q)
        ids = np.add.outer(first * len(right), second).ravel()
        sizes = np.outer(np.bincount(first, minlength=len(left)), np.bincount(second, minlength=len(right)))
        left, right = left.repeat(len(right), axis=0), np.tile(right, (len(left), 1))
        return ids, sizes.ravel(), left, right

    return cached_by_shape(("orbits", n, p, q), build)


def orbit_sums(coeffs: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the sums of the entries of ``coeffs``
    over the orbits labelled by ``ids`` (see ``orbit_table``).

    ``np.add.at`` adds every entry to its orbit's complex sum in C order,
    starting from +0.0, one part at a time: the IEEE additions, in their
    order, of a float ``bincount`` per part, so the sums are those bit for
    bit (-0.0 turns +0.0, inf and NaN propagate).  Only which of two NaNs
    an imaginary sum keeps may differ (numpy's loop keeps the added
    value's); no residual or report tells NaNs apart.  Orbits are numbered
    in lexicographic order, so the last position holds the last orbit.  A
    tensor of more than _RANK_CHUNK entries is raveled block by block over
    its leading axes, split as ``_block_ranks`` splits them, so no view is
    copied whole; a smaller one takes one call, which costs less than
    blocks.
    """
    out = np.zeros(ids[-1] + 1, dtype=complex)
    if coeffs.size <= _RANK_CHUNK:
        np.add.at(out, ids, coeffs.ravel())
    else:
        n, size = coeffs.shape[0], coeffs.ndim
        split = next(k for k in range(size + 1) if n ** (size - k) <= _RANK_CHUNK)
        step = n ** (size - split)
        for h, head in enumerate(itertools.product(range(n), repeat=split)):
            np.add.at(out, ids[h * step : (h + 1) * step], coeffs[head].ravel())
    return out.real, out.imag


def orbit_mean(coeffs: np.ndarray, ids: np.ndarray, sizes: np.ndarray, sums: tuple | None = None) -> np.ndarray:
    """``coeffs`` with every entry replaced by the mean over its orbit, from
    the orbit table's ``ids`` and ``sizes`` and its ``orbit_sums`` (taken
    here when ``sums`` is None).  Where every orbit is one entry (no block
    has two slots, or one cell) this is the identity, and ``coeffs`` itself
    is returned."""
    if len(sizes) == coeffs.size:
        return coeffs
    re, im = orbit_sums(coeffs, ids) if sums is None else sums
    mean = (re.astype(complex) + 1j * im) / sizes
    return mean[ids].reshape(coeffs.shape)


def _orbit_mean(f: Kernel, p: int, q: int) -> Kernel:
    """Replace every entry of f by the mean over its orbit under permutations
    within blocks of p and q slots."""
    ids, sizes, _, _ = orbit_table(f.n, p, q)
    coeffs = orbit_mean(f.coeffs, ids, sizes)
    return f if coeffs is f.coeffs else Kernel._adopt(f.p, f.q, f.n, coeffs)


def ito_symmetrize(f: Kernel) -> Kernel:
    """Average over permutations within the first p slots and, separately,
    the last q slots.  Idempotent; never increases the norm."""
    return _orbit_mean(f, f.p, f.q)


def ordinary_symmetrize(f: Kernel) -> Kernel:
    """Average over all permutations of the p + q slots; the (p, q) split is
    kept as a label on the result."""
    return _orbit_mean(f, f.p + f.q, 0)


def reversed_conjugate(f: Kernel) -> Kernel:
    """Conjugate the coefficients and swap the two slot blocks, giving an
    order-(q, p) kernel.  Applying twice is the identity."""
    return Kernel._adopt(f.q, f.p, f.n, reversed_conjugate_of(f.coeffs, f.p))


def reversed_conjugate_of(coeffs: np.ndarray, p: int) -> np.ndarray:
    """The coefficients of ``reversed_conjugate`` from those of a kernel
    whose first block has p slots: a transposed view of their conjugate."""
    return np.conj(coeffs).transpose(tuple(range(p, coeffs.ndim)) + tuple(range(p)))


@functools.lru_cache(maxsize=None)
def _contraction_plan(p1: int, q1: int, p2: int, q2: int, i: int, j: int) -> tuple:
    """The steps of ``contract`` for one pair of orders, as ``np.tensordot``
    derives them: the transposes that move each operand's paired axes last
    (f) or first (g), the counts of free and paired axes, and the transpose
    that interleaves the blocks of the product.  Finitely many lie within
    the caps; the cell count enters only the shapes."""
    f_axes = list(range(p1 - i, p1)) + list(range(p1 + q1 - j, p1 + q1))
    g_axes = list(range(p2 + q2 - i, p2 + q2)) + list(range(p2 - j, p2))
    f_free = [k for k in range(p1 + q1) if k not in f_axes]
    g_free = [k for k in range(p2 + q2) if k not in g_axes]
    # The product's axes run [f-first, f-second, g-first, g-second]; put the
    # two first blocks before the two second blocks.
    f1, f2, g1 = p1 - i, q1 - j, p2 - j
    interleave = (
        tuple(range(f1))
        + tuple(range(f1 + f2, f1 + f2 + g1))
        + tuple(range(f1, f1 + f2))
        + tuple(range(f1 + f2 + g1, len(f_free) + len(g_free)))
    )
    f_perm, g_perm = tuple(f_free + f_axes), tuple(g_axes + g_free)
    return f_perm, g_perm, len(f_free), i + j, len(g_free), interleave


def contract(f: Kernel, g: Kernel, spec: ContractionSpec) -> Kernel:
    """Integrate out ``spec.i`` pairings between f's first block and g's
    second block plus ``spec.j`` pairings between f's second block and g's
    first block.

    The paired slots are the trailing ones of each block.  In orthonormal
    coordinates the pairing is a plain (bilinear, unconjugated) index
    summation.  The result keeps f's free slots first in each block:
    first block = f's leading p1-i slots then g's leading p2-j slots,
    second block = f's leading q1-j slots then g's leading q2-i slots.
    ``ContractionSpec(0, 0)`` is the tensor product.  Counts outside
    i <= min(p1, q2), j <= min(q1, p2) return the zero kernel.

    The sum is ``np.tensordot``'s: the same transposes, reshapes and one
    ``np.dot``, planned once per shape (see ``_contraction_plan``).
    """
    if f.n != g.n:
        raise ValueError(f"cell count mismatch: {f.n} vs {g.n}")
    i, j = spec.i, spec.j
    p1, q1, p2, q2 = f.p, f.q, g.p, g.q
    out_p = p1 + p2 - i - j
    out_q = q1 + q2 - i - j
    if i > min(p1, q2) or j > min(q1, p2):
        return Kernel.zeros(max(out_p, 0), max(out_q, 0), f.n)
    plan = _contraction_plan(p1, q1, p2, q2, i, j)
    return Kernel._adopt(out_p, out_q, f.n, contraction(f.coeffs, g.coeffs, f.n, plan))


def contraction(f: np.ndarray, g: np.ndarray, n: int, plan: tuple) -> np.ndarray:
    """The contraction of the tensors f and g on n cells that
    ``_contraction_plan`` planned: a transposed view of one ``np.dot``."""
    f_perm, g_perm, f_free, paired, g_free, interleave = plan
    out = np.dot(
        f.transpose(f_perm).reshape(n**f_free, n**paired),
        g.transpose(g_perm).reshape(n**paired, n**g_free),
    )
    return out.reshape((n,) * len(interleave)).transpose(interleave)


def _norm(arr: np.ndarray) -> float:
    # The steps np.linalg.norm takes for a complex array, without its checks.
    flat = arr.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def norm(f: Kernel) -> float:
    """Hilbert norm: sqrt of the sum of squared coefficient moduli."""
    return _norm(f.coeffs)


def inner(f: Kernel, g: Kernel) -> complex:
    """Inner product, conjugate-linear in the second argument."""
    f._check_same_shape(g)
    return complex(np.vdot(g.coeffs, f.coeffs))


def indicator_to_orthonormal(measure: DiscreteMeasure, p: int, q: int, coeffs) -> Kernel:
    """Ingest a kernel given in raw indicator coordinates (basis 1_{E_i}) by
    scaling each entry with the product of sqrt-masses of its cells."""
    arr = np.array(coeffs, dtype=np.complex128)
    w = np.sqrt(np.asarray(measure.masses))
    for axis in range(p + q):
        shape = [1] * (p + q)
        shape[axis] = measure.n
        arr = arr * w.reshape(shape)
    return Kernel(p, q, measure.n, arr)


def random_kernel(
    p: int, q: int, n: int, rng: np.random.Generator, normalize: bool = True
) -> Kernel:
    """Dense kernel with iid standard complex Gaussian entries, unit norm by
    default so certification residuals stay on a comparable scale."""
    shape = (n,) * (p + q)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if normalize:
        scale = _norm(arr)
        if scale > 0:
            arr = arr / scale
    # Copied, not adopted: a grid keeps thousands of these, and keeping the
    # quotient instead of a copy made after its temporaries are freed raised
    # the exact-algebra bench's peak RSS by about 2 MB.
    return Kernel(p, q, n, arr)
