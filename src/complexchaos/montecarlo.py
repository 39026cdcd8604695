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

# Sampler workers: the caller plus one helper thread per further CPU.
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


def evaluate_polynomial(poly: "ChaosPolynomial", samples: np.ndarray) -> np.ndarray:
    """Evaluate a chaos polynomial on a batch of coordinate vectors.

    Each term is its coefficient times ``z_k**a_k`` for k ascending, then
    ``conj(z_k)**b_k`` for k ascending, multiplied in that order and added to
    the total term by term; each distinct power is computed once per block.
    """
    if samples.ndim != 2 or samples.shape[1] != poly.n:
        raise ValueError(f"samples must have shape (count, {poly.n})")
    # Distinct (cell, exponent, conjugated) powers, and per term its
    # coefficient with the indices of its factors among them.
    powers: dict[tuple[int, int, bool], int] = {}
    terms: list[tuple[complex, list[int]]] = []
    a, b = unpack(poly.z, poly.n).tolist(), unpack(poly.zc, poly.n).tolist()
    for avec, bvec, coeff in zip(a, b, map(complex, poly.re.tolist(), poly.im.tolist())):
        factors = [
            powers.setdefault((k, e, conjugated), len(powers))
            for conjugated, vec in ((False, avec), (True, bvec))
            for k, e in enumerate(vec)
            if e
        ]
        terms.append((coeff, factors))

    total = np.zeros(samples.shape[0], dtype=np.complex128)
    # Two term buffers, so that no product is formed in place: numpy may
    # round an in-place product differently (seen on one-row arrays).
    buffers = np.empty((2, min(_BLOCK, len(total))), dtype=np.complex128)
    for start in range(0, len(total), _BLOCK):
        rows = samples[start : start + _BLOCK]
        conj = np.conj(rows)
        values = [(conj if conjugated else rows)[:, k] ** e for k, e, conjugated in powers]
        out = total[start : start + _BLOCK]
        for coeff, factors in terms:
            if not factors:
                out += coeff
                continue
            term, spare = buffers[:, : len(out)]
            # A numpy complex128 scalar first: the same bits as filling the
            # term with it and multiplying, and a complex128 product even
            # for complex64 samples.
            np.multiply(np.complex128(coeff), values[factors[0]], out=term)
            for f in factors[1:]:
                np.multiply(term, values[f], out=spare)
                term, spare = spare, term
            out += term
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
