"""One SHA-256 per check kind over every residual and float metadata value.

    python3 tools/residual_digest.py SEED [--small]

Runs the seeded exact-algebra grids at acceptance sizes: the product
formula at SEED (criterion 1), the conjugated product formula at SEED+1
(criterion 2), the covariance of squared moduli at SEED+5 (criterion 5) and
hypercontractivity at SEED+8 with its two anchors (criterion 8), all drawn
through ``suites._grid`` as the batteries draw them, so seed 101 gives the
acceptance grids.  Then one random kernel of every high-order shape, drawn
from a generator seeded with SEED, goes through the isometry and the
conjugate-lemma checks.  Last, the zero-orbit kind runs the five checks
that have check programs (product, conjugated product, covariance,
hypercontractivity, isometry) on kernels whose expansions drop zero
coefficients: masked random kernels and basis tensors on 1 to 3 cells,
drawn from a generator seeded with (SEED, 0), for every order tuple of
total <= 6 (hypercontractivity and isometry for every order of total
<= 4).  Then the independence kind runs the independence check on the
covariance grid's pairs of non-degenerate orders and on the zero-orbit
pairs, and ``asymptotic_diagnostics`` on the coupled-decay pair of the
selftest and, for every order tuple of total <= 6 and cell count, on two
sequences of a dense, a masked and a basis kernel, drawn from a generator
seeded with (SEED, 1).  Last, the polynomial kind runs the checks that
compose ``ChaosPolynomial`` operations on polynomials built from a mapping,
on constants, on powers and on zero: ``moment_factorization_gap`` on the
coupled-decay pairs at indices 0..15 and on pairs of masked kernels of
every non-degenerate order tuple of total <= 3, drawn from a generator
seeded with (SEED, 2); the Gram values E[J conj(J')] of the complex
Hermite family of total degree <= 6 through the array oracle
(``oracle.pair_expectation`` of the members' ``hermite_to_chaos``
polynomials), real and imaginary part, which only this tool forms
(``hermite_orthogonality_report`` sums them in integers by the moment rule);
and ``hermite_product_report`` with a perturbation of 1e-3.  Each output line
is ``kind sha256 values``; the hash covers ``float.hex`` of the residual
and of every float metadata value (of an asymptotic row: every pair's
contraction norm and covariance, then the second moments; of a list of
gaps or pair values: each value), in check order.  Equal output from two
checkouts means bit-identical residuals.  ``--small`` runs one trial per
order tuple, only the 3-cell high-order shapes and only the 2-cell
zero-orbit, asymptotic and masked polynomial kernels.

The checkout's own ``src`` is imported, whatever PYTHONPATH says.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from complexchaos import chaos, hermite, oracle, suites  # noqa: E402
from complexchaos.kernels import Kernel, random_kernel  # noqa: E402

# (p, q, cells): every p+q in {7, 8} on 3 cells, then the balanced shapes on
# 5 and 6 cells.
HIGH_ORDER_SHAPES = tuple(
    [(p, total - p, 3) for total in (7, 8) for p in range(total + 1)]
    + [(3, 3, 5), (3, 3, 6), (4, 4, 5), (4, 4, 6)]
)


def _reports(seed: int, small: bool):
    """(kind, report) of every check, in a fixed order."""
    trials, per_order = (1, 3) if small else (20, 100)
    for f, g in suites._grid(seed, hermite.order_tuples(6), 3, trials):
        yield "product", chaos.product_check(f, g)
    for f, g in suites._grid(seed + 1, hermite.order_tuples(6), 3, trials):
        yield "product-conjugated", chaos.product_conjugated_check(f, g)
    for f, g in suites._grid(seed + 5, hermite.order_tuples(6), 3, trials):
        yield "covariance", chaos.covariance_squares(f, g).report
    for (f,) in suites._grid(seed + 8, hermite.order_tuples(4, 2), 3, per_order):
        yield "hypercontractivity", chaos.hypercontractivity_check(f)
    for f in (Kernel.basis(1, 0, (0,), 1), Kernel.basis(1, 1, (0, 0), 1)):
        yield "hypercontractivity", chaos.hypercontractivity_check(f)
    rng = np.random.default_rng(seed)
    for p, q, n in HIGH_ORDER_SHAPES:
        if small and n > 3:
            continue
        f = random_kernel(p, q, n, rng)
        yield "isometry", chaos.isometry_check(f)
        yield "conjugate", chaos.integral_conjugate(f)
    cells = (2,) if small else (1, 2, 3)
    rng = np.random.default_rng((seed, 0))
    zero_orbit = []
    for n in cells:
        for masked in (True, False):
            for a, b, c, d in hermite.order_tuples(6):
                f, g = _zero_orbit_kernel(a, b, n, rng, masked), _zero_orbit_kernel(c, d, n, rng, masked)
                zero_orbit.append((f, g))
                yield "zero-orbit", chaos.product_check(f, g)
                yield "zero-orbit", chaos.product_conjugated_check(f, g)
                yield "zero-orbit", chaos.covariance_squares(f, g).report
                if a + b <= 4 and c + d == 0:
                    yield "zero-orbit", chaos.hypercontractivity_check(f)
                    yield "zero-orbit", chaos.isometry_check(f)
    pairs = itertools.chain(suites._grid(seed + 5, hermite.order_tuples(6), 3, trials), zero_orbit)
    for f, g in pairs:
        if f.p + f.q and g.p + g.q:
            yield "independence", chaos.independence_check(f, g)
    rng = np.random.default_rng((seed, 1))
    families = [chaos.coupled_decay_sequences(16)]
    for n in cells:
        for orders in hermite.order_tuples(6):
            families.append(
                [
                    chaos.KernelSequence(
                        "",
                        (
                            random_kernel(p, q, n, rng),
                            _zero_orbit_kernel(p, q, n, rng, True),
                            _zero_orbit_kernel(p, q, n, rng, False),
                        ),
                    )
                    for p, q in (orders[:2], orders[2:])
                ]
            )
    for seqs in families:
        for row in chaos.asymptotic_diagnostics(seqs):
            values = [v for pair in row.pairs for v in (pair.max_contraction_norm, pair.covariance)]
            yield "independence", values + list(row.second_moments)
    rng = np.random.default_rng((seed, 2))
    first, second = chaos.coupled_decay_sequences(16)
    gap_pairs = list(zip(first.entries, second.entries))
    for n in cells:
        for a, b, c, d in hermite.order_tuples(3):
            if a + b and c + d:
                gap_pairs.append((_zero_orbit_kernel(a, b, n, rng, True), _zero_orbit_kernel(c, d, n, rng, True)))
    yield "polynomial", [chaos.moment_factorization_gap(f, g) for f, g in gap_pairs]
    members = [chaos.hermite_to_chaos(hermite.build(m, n, 1), 0, 1) for m, n in hermite.order_tuples(6, 2)]
    values = [oracle.pair_expectation(left, right.conjugate()) for left in members for right in members]
    yield "polynomial", [part for v in values for part in (v.real, v.imag)]
    yield "polynomial", suites.hermite_product_report(perturbation=1e-3)


def _zero_orbit_kernel(p: int, q: int, n: int, rng, masked: bool) -> Kernel:
    """A kernel with zero-sum orbits: random on some of the n cells, or a
    basis tensor."""
    if masked:
        cells = tuple(sorted(set(rng.integers(0, n, size=max(1, n - 1)).tolist())))
        return suites._masked_random_kernel(p, q, n, cells, rng)
    return Kernel.basis(p, q, tuple(rng.integers(0, n, size=p + q).tolist()), n)


def digests(seed: int, small: bool = False) -> list[str]:
    hashes: dict = {}
    counts: dict[str, int] = {}
    for kind, item in _reports(seed, small):
        if isinstance(item, list):  # an asymptotic row's values, gaps or pair values
            values = item
        else:
            values = [item.residual] + [v for v in item.metadata.values() if isinstance(v, float)]
        h = hashes.setdefault(kind, hashlib.sha256())
        for v in values:
            h.update(v.hex().encode() + b"\n")
        counts[kind] = counts.get(kind, 0) + len(values)
    return [f"{kind} {h.hexdigest()} {counts[kind]}" for kind, h in hashes.items()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("--small", action="store_true", help="one trial per tuple, fewer shapes and cells")
    args = parser.parse_args(argv)
    for line in digests(args.seed, args.small):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
