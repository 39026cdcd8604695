import math

import numpy as np
import pytest

from complexchaos import Kernel
from complexchaos.oracle import unpack


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def brute_block_symmetrize(kernel: Kernel, blocks: list[list[int]]) -> np.ndarray:
    """Independent symmetrization oracle: explicit permutation enumeration
    over the given axis blocks, written without the library's transpose
    shortcuts."""
    import itertools

    arr = np.zeros_like(kernel.coeffs)
    groups = [list(itertools.permutations(block)) for block in blocks]
    count = 0
    for combo in itertools.product(*groups):
        mapping = {}
        for block, perm in zip(blocks, combo):
            mapping.update(dict(zip(block, perm)))
        order = [mapping.get(axis, axis) for axis in range(kernel.coeffs.ndim)]
        src = kernel.coeffs
        out = np.empty_like(src)
        for idx in np.ndindex(*src.shape):
            out[idx] = src[tuple(idx[order[a]] for a in range(len(order)))]
        arr += out
        count += 1
    return arr / count


class DictPolynomial:
    """Brute reference for ChaosPolynomial: the engine's earlier arithmetic on
    a dict {(a, b): complex} keyed by exponent tuples, kept verbatim so the
    array engine can be compared with it bit for bit (evaluation, one point
    at a time in Python complex arithmetic, only to rounding)."""

    def __init__(self, n: int, terms: dict) -> None:
        self.n = n
        self.terms = {k: complex(c) for k, c in terms.items() if c != 0}

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            acc = out.get(key, 0j) + c
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
        return DictPolynomial(self.n, out)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def __mul__(self, other):
        out: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (
                    tuple(x + y for x, y in zip(a1, a2)),
                    tuple(x + y for x, y in zip(b1, b2)),
                )
                out[key] = out.get(key, 0j) + c1 * c2
        return DictPolynomial(self.n, out)

    def scaled(self, scalar):
        s = complex(scalar)
        return DictPolynomial(self.n, {k: c * s for k, c in self.terms.items()})

    def conjugate(self):
        return DictPolynomial(self.n, {(b, a): c.conjugate() for (a, b), c in self.terms.items()})

    def max_diff(self, other) -> float:
        keys = set(self.terms) | set(other.terms)
        return max(
            (abs(self.terms.get(k, 0j) - other.terms.get(k, 0j)) for k in keys), default=0.0
        )

    def expectation(self) -> complex:
        import math

        re, im = [], []
        for (a, b), coeff in self.terms.items():
            if a == b:
                weight = math.prod(math.factorial(x) for x in a)
                re.append(coeff.real * weight)
                im.append(coeff.imag * weight)
        return complex(math.fsum(re), math.fsum(im))

    def pair_expectation(self, right) -> complex:
        import math

        re, im = [], []
        for (a, b), coeff in self.terms.items():
            for (a2, b2), coeff2 in right.terms.items():
                if all(x - y == v - u for x, y, u, v in zip(a, b, a2, b2)):
                    weight = math.prod(math.factorial(x + y) for x, y in zip(a, a2))
                    value = coeff * coeff2
                    re.append(value.real * weight)
                    im.append(value.imag * weight)
        return complex(math.fsum(re), math.fsum(im))

    def evaluate(self, point) -> complex:
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


def _orbit_poly(left: tuple[int, ...], right: tuple[int, ...]) -> dict:
    """Product over the cells of Hermite polynomials (rho = 1) whose degrees
    are the cell's slot counts ``left[cell]`` and ``right[cell]``."""
    from complexchaos import hermite

    zero = (0,) * len(left)
    poly = {(zero, zero): 1}
    for cell, (mult_z, mult_conj) in enumerate(zip(left, right)):
        if mult_z + mult_conj == 0:
            continue
        jterms = hermite.build(mult_z, mult_conj, 1).terms
        next_poly: dict = {}
        for (avec, bvec), c in poly.items():
            for (alpha, beta), w in jterms.items():
                a2 = avec[:cell] + (avec[cell] + alpha,) + avec[cell + 1 :]
                b2 = bvec[:cell] + (bvec[cell] + beta,) + bvec[cell + 1 :]
                next_poly[(a2, b2)] = next_poly.get((a2, b2), 0) + c * int(w)
        poly = next_poly
    return poly


def dict_expand(f: Kernel) -> DictPolynomial:
    """Brute reference for chaos.expand: orbits found by sorting every
    multi-index's blocks, visited in lexicographic order of those sorted
    representatives, and each orbit's Hermite product added term by term
    into a dict that drops a key whose sum reaches 0."""
    sums: dict = {}
    for idx in np.ndindex(*f.coeffs.shape):
        rep = (tuple(sorted(idx[: f.p])), tuple(sorted(idx[f.p :])))
        sums[rep] = sums.get(rep, 0j) + complex(f.coeffs[idx])
    terms: dict = {}
    for (first, second), c in sorted(sums.items()):
        if c == 0:
            continue
        left = tuple(first.count(k) for k in range(f.n))
        right = tuple(second.count(k) for k in range(f.n))
        for key, w in _orbit_poly(left, right).items():
            acc = terms.get(key, 0j) + c * w
            if acc == 0:
                terms.pop(key, None)
            else:
                terms[key] = acc
    return DictPolynomial(f.n, terms)


def dict_combination(parts) -> DictPolynomial:
    """Sum of ``dict_expand(kernel).scaled(weight)`` over the ``(weight,
    kernel)`` parts, one ``+`` after the other from the zero polynomial."""
    parts = list(parts)
    total = DictPolynomial(parts[0][1].n, {})
    for weight, kernel in parts:
        total = total + dict_expand(kernel).scaled(weight)
    return total


def reference_sample_coordinates(plan) -> np.ndarray:
    """Reference for montecarlo.sample_coordinates: the sampler as it was
    before row blocks, drawing every uniform in one call."""
    gen = np.random.Generator(np.random.Philox(key=plan.seed))
    u = gen.random((plan.samples, plan.n, 2))
    radius = np.sqrt(-np.log1p(-u[..., 0]))
    return radius * np.exp(2j * math.pi * u[..., 1])


def reference_evaluate_polynomial(poly, samples: np.ndarray) -> np.ndarray:
    """Reference for montecarlo.evaluate_polynomial: the evaluator as it was
    before row blocks, one term at a time over all rows."""
    conj = np.conj(samples)
    powers: dict = {}

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


def reference_contract(f: Kernel, g: Kernel, i: int, j: int) -> Kernel:
    """Reference for kernels.contract at an admissible (i, j): the
    ``np.tensordot`` formulation it had before its plans, through the public
    constructor's copy."""
    p1, q1, p2, q2 = f.p, f.q, g.p, g.q
    out_p, out_q = p1 + p2 - i - j, q1 + q2 - i - j
    f_axes = list(range(p1 - i, p1)) + list(range(p1 + q1 - j, p1 + q1))
    g_axes = list(range(p2 + q2 - i, p2 + q2)) + list(range(p2 - j, p2))
    out = np.tensordot(f.coeffs, g.coeffs, axes=(f_axes, g_axes))
    ft = list(range(0, p1 - i))
    fs = list(range(p1 - i, p1 - i + q1 - j))
    gt = list(range(p1 - i + q1 - j, p1 - i + q1 - j + p2 - j))
    gs = list(range(p1 - i + q1 - j + p2 - j, out_p + out_q))
    return Kernel(out_p, out_q, f.n, out.transpose(ft + gt + fs + gs))


def reference_orbit_table(n: int, p: int, q: int) -> tuple[np.ndarray, ...]:
    """Reference for kernels.orbit_table: the table as it was built before
    block ranks, by ``np.unique`` over the count codes of all n**(p+q)
    positions."""
    low = (q + 1) ** n
    place = np.arange(n - 1, -1, -1, dtype=np.int64)
    code = np.zeros((n,) * (p + q), dtype=np.int64)
    for axis in range(p + q):
        size, scale = (p, low) if axis < p else (q, 1)
        code += (scale * (size + 1) ** place).reshape((n,) + (1,) * (p + q - 1 - axis))
    uniq, inverse = np.unique(code.ravel(), return_inverse=True)
    ids = len(uniq) - 1 - inverse.ravel()
    uniq = uniq[::-1, None]
    left = uniq // low // (p + 1) ** place % (p + 1)
    right = uniq % low // (q + 1) ** place % (q + 1)
    return ids, np.bincount(ids), left, right
