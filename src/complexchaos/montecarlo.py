"""Seeded sampling of complex Gaussian coordinates and moment estimation.

The simulation side of the double-entry bookkeeping: every exact identity can
also be estimated from samples, and the two must agree to statistical
accuracy.  Reproducibility is taken seriously: uniforms come from the Philox
counter-based generator keyed directly with the plan seed, the Gaussian
transform is the fixed polar map  z = sqrt(-log u1) * exp(2*pi*1j*u2), and
reductions run over a fixed chunk grid with exact (fsum) combination, so the
result is independent of how chunks might be distributed across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .oracle import unpack

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
    gen = np.random.Generator(np.random.Philox(key=plan.seed))
    u = gen.random((plan.samples, plan.n, 2))
    radius = np.sqrt(-np.log1p(-u[..., 0]))  # 1 - u in (0, 1], log stays finite
    return radius * np.exp(2j * math.pi * u[..., 1])


def evaluate_polynomial(poly: "ChaosPolynomial", samples: np.ndarray) -> np.ndarray:
    """Evaluate a chaos polynomial on a batch of coordinate vectors."""
    if samples.ndim != 2 or samples.shape[1] != poly.n:
        raise ValueError(f"samples must have shape (count, {poly.n})")
    conj = np.conj(samples)
    powers: dict[tuple[int, int, bool], np.ndarray] = {}

    def power(k: int, e: int, conjugated: bool) -> np.ndarray:
        key = (k, e, conjugated)
        hit = powers.get(key)
        if hit is None:
            base = conj[:, k] if conjugated else samples[:, k]
            hit = powers[key] = base**e
        return hit

    total = np.zeros(samples.shape[0], dtype=np.complex128)
    a, b = unpack(poly.z, poly.n).tolist(), unpack(poly.zc, poly.n).tolist()
    for avec, bvec, coeff in zip(a, b, map(complex, poly.re.tolist(), poly.im.tolist())):
        term = np.full(samples.shape[0], coeff, dtype=np.complex128)
        for k, e in enumerate(avec):
            if e:
                term = term * power(k, e, False)
        for k, e in enumerate(bvec):
            if e:
                term = term * power(k, e, True)
        total += term
    return total


def _chunked_mean(values: np.ndarray) -> complex:
    re: list[float] = []
    im: list[float] = []
    for start in range(0, len(values), _CHUNK):
        block = values[start : start + _CHUNK]
        re.append(float(np.sum(block.real)))
        im.append(float(np.sum(block.imag)))
    return complex(math.fsum(re), math.fsum(im)) / len(values)


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
    sd = math.sqrt(math.fsum(spread) / (plan.samples - 1))
    return Estimate(value=mean, stderr=sd / math.sqrt(plan.samples), samples=plan.samples)
