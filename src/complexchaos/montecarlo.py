"""Seeded sampling of complex Gaussian coordinates and moment estimation.

The simulation side of the double-entry bookkeeping: every exact identity can
also be estimated from samples, and the two must agree to statistical
accuracy.  Reproducibility is taken seriously: uniforms come from the Philox
counter-based generator keyed directly with the plan seed, the Gaussian
transform is the fixed polar map  z = sqrt(-log u1) * exp(2*pi*1j*u2), and
reductions run over a fixed chunk grid with exact (fsum) combination, so the
result is independent of how chunks might be distributed across workers.

Sampling and evaluation run over the rows in fixed blocks of ``_BLOCK`` rows,
so that every temporary of a block stays in cache.  Each row goes through the
same operations in the same order whatever the block size, so the blocks
change no bit of any result.  The reduction grid ``_CHUNK`` is another
matter: changing it does change the bits of the mean and the spread.

The evaluator builds, per block, a table of every z-monomial and every
conj(z)-monomial the polynomial's terms need, each one complex multiply of
its parent (one lower in its last nonzero cell) by a coordinate or its
conjugate, with no ``**``.  It then groups the terms by z-monomial and adds
z-monomial * (sum of coefficient * conj-monomial) per group.  Against
multiplying each term out from powers, this rounds differently: over the
50 expanded squares of the Monte Carlo battery at seed 110, each value
moved by at most 1.6e-15 of the sum of its terms' moduli (the tests allow
1e-12).  It takes 4,389 array passes per row block over those expanded
squares, against 7,642 for the powers and the term-by-term products.  The
leaves of a product (below) fill one table in turn.  A block's table holds
at most ``_TABLE_BYTES``, so polynomials with many monomials get fewer rows
per block.  Only element-wise ufuncs run, so no bit depends on the rows.

A product ``x * y`` or a conjugate ``x.conjugate()`` is not evaluated from
its own terms but from its operands' values (``ChaosPolynomial._parts``):
each distinct operand is evaluated once per block, and the product or
conjugate is one element-wise multiply or conjugation of their value rows.
So the estimate of E|I(f)|^2 from ``p * p.conjugate()`` evaluates p's
terms (288 over the battery's 50 kernels at seed 110) instead of the
square's (1,682), and it does not read the square's coefficients, which
the Wick oracle reads, so a defect in the product's coefficients shows up
as a gap between the two.  Against evaluating the expanded square, each
value moved by at most 8.4e-16 of the sum of the square's term moduli over
those 50 squares at 100,000 samples, and each mean by at most 3.0e-16
relative.  Polynomials without ``_parts`` keep their bits.  The operands'
value rows count against ``_TABLE_BYTES`` with the table.

The sampler's blocks are shared among ``_WORKERS`` workers (one per CPU the
process may run on: the caller plus helper threads), each with its own
temporaries, writing disjoint rows of the output.  A block draws from its own
Philox generator keyed with the plan seed and moved to the block's place in
the stream: the ``start * n * 2`` uniforms drawn before it are skipped with
``advance(skip // 4)`` (Philox4x64 hands out four 64-bit draws per counter
step, one per uniform) and ``skip % 4`` discarded draws.  So a block gets the
same uniforms as in one sequential stream, and no bit depends on the block
size or on how many workers run.  The evaluator stays on one thread: two
threads running its complex multiplies got through fewer elements per second
together than one thread alone (README, Monte Carlo paragraph).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .oracle import exact_sum, unpack

if TYPE_CHECKING:  # pragma: no cover
    from .chaos import ChaosPolynomial

__all__ = [
    "Estimate",
    "GENERATOR_NAME",
    "SamplePlan",
    "estimate",
    "evaluate_polynomial",
    "sample_coordinates",
]

GENERATOR_NAME = "philox4x64:polar-boxmuller"

# Fixed reduction grid; changing it changes the exact bit pattern of results.
_CHUNK = 1 << 14

# Rows per block of sampling and evaluation; any size gives the same bits.
_BLOCK = 1 << 13

# Most bytes of monomial table and work rows that one evaluation block holds.
_TABLE_BYTES = 1 << 21

# Workers, one per CPU: the sampler's caller plus one helper thread per
# further CPU, and the selftest's forked children (``suites._forked``).
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sampling request: seed, draw count, coordinate count."""

    seed: int
    samples: int
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.samples < 2:
            raise ValueError("need at least two samples to estimate a spread")
        if self.n < 1:
            raise ValueError("need at least one coordinate")


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error (sample sd / sqrt(count))."""

    value: complex
    stderr: float
    samples: int


def sample_coordinates(plan: SamplePlan) -> np.ndarray:
    """Array of shape (samples, n): iid standard complex Gaussians, i.e. real
    and imaginary parts independent with variance 1/2 each."""
    out = np.empty((plan.samples, plan.n), dtype=np.complex128)
    starts = range(0, plan.samples, _BLOCK)
    workers = min(_WORKERS, len(starts))
    rows = min(_BLOCK, plan.samples)
    # Each worker's temporaries are allocated here, in the caller's thread:
    # allocated in the helpers, they raised the sampling workload's peak RSS
    # by about 1.5 MB (glibc gives a thread that allocates its own arena).
    buffers = [
        (
            np.empty((rows, plan.n, 2)),
            np.empty((rows, plan.n)),
            np.empty((rows, plan.n), dtype=np.complex128),
        )
        for _ in range(workers)
    ]
    errors: list[BaseException] = []

    def work(worker: int) -> None:
        for start in starts[worker::workers]:
            block = out[start : start + _BLOCK]
            u, radius, phase = (buffer[: len(block)] for buffer in buffers[worker])
            bits = np.random.Philox(key=plan.seed)
            skip = start * plan.n * 2  # uniforms drawn before this block
            bits.advance(skip // 4)
            bits.random_raw(skip % 4)
            np.random.Generator(bits).random(out=u)
            np.negative(u[..., 0], out=radius)
            np.log1p(radius, out=radius)  # 1 - u in (0, 1], log stays finite
            np.negative(radius, out=radius)
            np.sqrt(radius, out=radius)
            np.multiply(2j * math.pi, u[..., 1], out=phase)
            np.exp(phase, out=phase)
            np.multiply(radius, phase, out=block)

    def helper(worker: int) -> None:
        try:
            work(worker)
        except BaseException as exc:  # handed to the caller
            errors.append(exc)

    threads = [threading.Thread(target=helper, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        work(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return out


def _evaluation_plan(poly: "ChaosPolynomial") -> tuple[list, list]:
    """The monomial table and the grouped sums that evaluate ``poly``.

    A monomial is an exponent vector over the 2n columns z_1..z_n,
    conj(z_1)..conj(z_n); column j is the monomial of the unit vector e_j.
    ``steps`` lists the other monomials the terms need, each after its
    parent (the same vector one lower in its last nonzero cell), as
    (parent index, column): monomial 2n + i is the product of step i's
    parent and column.  ``groups`` holds per distinct z-exponent vector, in
    order of first occurrence among the terms, the index of its z-monomial
    (None for the zero vector), its terms with a conjugate part as
    (coefficient, conj-monomial index) in term order, and the coefficient
    of its term without one (None when it has none)."""
    n = poly.n
    index = {tuple(int(i == j) for i in range(2 * n)): j for j in range(2 * n)}
    steps: list[tuple[int, int]] = []

    def monomial(vec: tuple[int, ...]) -> int | None:
        if not any(vec):
            return None
        chain = []
        while vec not in index:
            last = max(j for j, e in enumerate(vec) if e)
            chain.append((vec, last))
            vec = vec[:last] + (vec[last] - 1,) + vec[last + 1 :]
        parent = index[vec]
        for higher, column in reversed(chain):
            steps.append((parent, column))
            parent = index[higher] = 2 * n + len(steps) - 1
        return parent

    groups: dict[tuple[int, ...], list] = {}
    zeros = (0,) * n
    a, b = unpack(poly.z, n).tolist(), unpack(poly.zc, n).tolist()
    for avec, bvec, coeff in zip(a, b, map(np.complex128, poly.re.tolist(), poly.im.tolist())):
        key = tuple(avec)
        group = groups.get(key)
        if group is None:
            group = groups[key] = [monomial(key + zeros), [], None]
        conj = monomial(zeros + tuple(bvec))
        if conj is None:
            group[2] = coeff  # keys are distinct: one such term per group
        else:
            group[1].append((coeff, conj))
    return steps, [tuple(group) for group in groups.values()]


def _operands(poly: "ChaosPolynomial") -> list:
    """The distinct polynomials (by identity) that ``poly`` is evaluated
    from, each after its operands and ``poly`` last.  A polynomial without
    ``_parts`` is a leaf.  The walk keeps its own stack, so a deep chain of
    products (a high power) cannot reach the recursion limit."""
    order, seen = [], set()
    stack = [(poly, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((part, False) for part in reversed(node._parts or ()))
    return order


def _fill(plan: tuple, block: np.ndarray, table: np.ndarray, work: np.ndarray, out: np.ndarray) -> None:
    """Write the values of the leaf of ``_evaluation_plan`` ``plan`` at the
    rows ``block`` into ``out``, summed from zeros, with the monomial table
    ``table`` and the two complex work rows ``work`` (at least as wide and
    as long as needed)."""
    steps, groups = plan
    n = block.shape[1]
    out.fill(0)
    cols = table[: 2 * n + len(steps), : len(block)]
    np.copyto(cols[:n], block.T)
    np.conj(cols[:n], out=cols[n : 2 * n])
    for i, (parent, column) in enumerate(steps, 2 * n):
        np.multiply(cols[parent], cols[column], out=cols[i])
    inner_buf, term = work[:, : len(block)]
    for z, terms, const in groups:
        inner = const if not terms else np.multiply(terms[0][0], cols[terms[0][1]], out=inner_buf)
        for coeff, conj in terms[1:]:
            inner += np.multiply(coeff, cols[conj], out=term)
        if terms and const is not None:
            inner += const
        out += inner if z is None else np.multiply(cols[z], inner, out=term)


def evaluate_polynomial(poly: "ChaosPolynomial", samples: np.ndarray) -> np.ndarray:
    """Evaluate a chaos polynomial on a batch of coordinate vectors.

    A product ``x * y`` is evaluated as the values of x times those of y,
    and a conjugate ``x.conjugate()`` as the conjugate of the values of x
    (``ChaosPolynomial._parts``), each distinct operand once, so ``p *
    p.conjugate()`` costs one evaluation of p and two element-wise passes,
    not one of its expanded terms.  Every other polynomial is a leaf: per
    row block, every monomial its terms need is one multiply of its parent
    by a coordinate or its conjugate (``_evaluation_plan``).  Then per
    distinct z-monomial m, in order of first occurrence, the inner sum
    c_1 * conj-monomial_1 + c_2 * conj-monomial_2 + ... of its terms is
    formed in term order, the coefficient of its term without a conjugate
    part added last, and m times that sum is added to the leaf's value,
    from zero.  Real samples are evaluated in float64 tables, complex ones
    in complex128; values are complex128.
    """
    if samples.ndim != 2 or samples.shape[1] != poly.n:
        raise ValueError(f"samples must have shape (count, {poly.n})")
    nodes = _operands(poly)
    plans = [_evaluation_plan(node) if node._parts is None else None for node in nodes]
    where = {id(node): i for i, node in enumerate(nodes)}
    parts = [tuple(where[id(part)] for part in node._parts or ()) for node in nodes]
    total = np.empty(samples.shape[0], dtype=np.complex128)
    n, dtype = poly.n, np.result_type(samples.dtype, np.float64)
    # Rows per block: as many as _TABLE_BYTES holds of the widest leaf's
    # monomial columns (one table, which the leaves fill in turn), the two
    # complex work rows and one complex value row per operand, at most _BLOCK.
    width = max((2 * n + len(plan[0]) for plan in plans if plan), default=0)
    row_bytes = width * dtype.itemsize + (len(nodes) + 1) * 16
    rows = max(1, min(_BLOCK, len(total), _TABLE_BYTES // row_bytes))
    table = np.empty((width, rows), dtype=dtype)
    # No product is formed in place: numpy may round an in-place product
    # differently (seen on one-row arrays).
    work = np.empty((2, rows), dtype=np.complex128)
    buffers = np.empty((len(nodes) - 1, rows), dtype=np.complex128)
    for start in range(0, len(total), rows):
        block = samples[start : start + rows]
        values = list(buffers[:, : len(block)]) + [total[start : start + rows]]
        for plan, operands, out in zip(plans, parts, values):
            if plan is not None:
                _fill(plan, block, table, work, out)
            elif len(operands) == 1:
                np.conj(values[operands[0]], out=out)
            else:
                np.multiply(values[operands[0]], values[operands[1]], out=out)
    return total


def _chunked_mean(values: np.ndarray) -> complex:
    re: list[float] = []
    im: list[float] = []
    for start in range(0, len(values), _CHUNK):
        block = values[start : start + _CHUNK]
        re.append(float(np.sum(block.real)))
        im.append(float(np.sum(block.imag)))
    return complex(exact_sum(re), exact_sum(im)) / len(values)


def estimate(poly: "ChaosPolynomial", plan: SamplePlan) -> Estimate:
    """Mean of the polynomial over the plan's samples, with standard error."""
    if poly.n != plan.n:
        raise ValueError(f"polynomial has {poly.n} coordinates, plan has {plan.n}")
    values = evaluate_polynomial(poly, sample_coordinates(plan))
    mean = _chunked_mean(values)
    spread = [
        float(np.sum(np.abs(values[s : s + _CHUNK] - mean) ** 2))
        for s in range(0, len(values), _CHUNK)
    ]
    sd = math.sqrt(exact_sum(spread) / (plan.samples - 1))
    return Estimate(value=mean, stderr=sd / math.sqrt(plan.samples), samples=plan.samples)
