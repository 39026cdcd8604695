"""Check programs against the ChaosPolynomial composition they replace.

Every check that has a program (product, conjugated product, the covariance
of squared moduli, hypercontractivity, isometry) must give the report the
composition gives, bit for bit: cold, warm and with a shape cache that keeps
one entry; so must the independence check, which reads its contraction
norms from the covariance program.  The composition, written here over the
public operations, is the reference: the ``composed`` fixture patches it in
for the programs.  Its Wick oracle side expands the kernels as given, as
the programs do.  The covariance formula's reference is its sum of
contraction norms over ``Kernel`` operations on the ``ito_symmetrize``d
kernels, and the reference of the contraction norms is
``kernels.contract`` and ``kernels.norm``.  The moment factorization gap
is compared with the power-by-power implementation it replaced, and the
Hermite orthogonality report's moment-rule Gram values with the Wick
oracle's joins of the members.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from complexchaos import ChaosPolynomial, Kernel, chaos, cli, hermite, kernels, oracle, suites

ROOT = Path(__file__).resolve().parent.parent


def composed_product(f, g, conjugated):
    """Relative residual of the product formula: the largest coefficient
    deviation of the two sides over the larger of 1.0 and their scales."""
    if conjugated:
        lhs, terms = chaos.expand(f) * chaos.expand(g).conjugate(), chaos.product_conjugated(f, g)
    else:
        lhs, terms = chaos.expand(f) * chaos.expand(g), chaos.product(f, g)
    rhs = chaos._sum_of(f.n, [(chaos.expand(t.kernel), t.weight) for t in terms])
    return lhs.max_diff(rhs) / max(1.0, lhs.max_abs(), rhs.max_abs())


def composed_squares(fs):
    """E[|I(f)|^2 |I(g)|^2], E[|I(f)|^2], E[|I(g)|^2] for fs = (f, g), and
    E[|I(f)|^4], E[|I(f)|^2] for fs = (f,)."""
    squares = []
    for f in fs:
        poly = chaos.expand(f)
        squares.append(poly * poly.conjugate())
    joint = oracle.pair_expectation(squares[0], squares[-1]).real
    return (joint, *[oracle.expectation(sq).real for sq in squares])


def composed_isometry(f):
    poly = chaos.expand(f)
    return oracle.pair_expectation(poly, poly.conjugate()).real, kernels.norm(kernels.ito_symmetrize(f))


def covariance_formula(f, g):
    """Exact covariance of |integral(f)|^2 and |integral(g)|^2 assembled from
    contraction norms of the (already symmetrized) kernels: contraction
    terms of equal total pairing count s = i + j grouped before the
    isometry, then the zero-pairing remainder re-expanded into plain
    contraction norms against g."""
    a, b = f.order
    c, d = g.order
    h = kernels.reversed_conjugate(g)
    parts = []
    for s in range(1, min(a, c) + min(b, d) + 1):
        group = None
        for i in range(min(a, c, s), -1, -1):
            j = s - i
            if j > min(b, d):
                continue
            w = hermite.pairing_weight(a, b, d, c, i, j)
            piece = w * kernels.contract(f, h, kernels.ContractionSpec(i, j))
            group = piece if group is None else group + piece
        if group is None:
            continue
        weight = math.factorial(a + d - s) * math.factorial(b + c - s)
        parts.append(weight * kernels.norm(kernels.ito_symmetrize(group)) ** 2)
    base = math.factorial(a) * math.factorial(b) * math.factorial(c) * math.factorial(d)
    for i in range(min(a, d) + 1):
        for j in range(min(b, c) + 1):
            if i + j == 0:
                continue
            w = math.comb(a, i) * math.comb(d, i) * math.comb(b, j) * math.comb(c, j)
            parts.append(w * base * kernels.norm(kernels.contract(f, g, kernels.ContractionSpec(i, j))) ** 2)
    return math.fsum(parts)


def composed_covariance(f, g):
    """The formula and the norm of every admissible contraction with
    i + j >= 1, against g and against its reversed conjugate, on the
    symmetrized kernels, and the composed Wick oracle on the kernels
    themselves."""
    fs, gs = kernels.ito_symmetrize(f), kernels.ito_symmetrize(g)
    joint, e_f, e_g = composed_squares((f, g))
    norms = {}
    for against, h in (("kernel", gs), ("reversed", kernels.reversed_conjugate(gs))):
        for i in range(min(fs.p, h.q) + 1):
            for j in range(min(fs.q, h.p) + 1):
                if i + j:
                    norms[against, i, j] = kernels.norm(kernels.contract(fs, h, kernels.ContractionSpec(i, j)))
    return covariance_formula(fs, gs), joint - e_f * e_g, norms


COMPOSITION = {
    "_product_program": composed_product,
    "_squares_program": composed_squares,
    "_isometry_program": composed_isometry,
    "_covariance_program": composed_covariance,
}


def fingerprint(report) -> tuple:
    """The report as JSON plus the hex of its residual and float metadata,
    so that signed zeros and NaN payload-free bits count."""
    floats = [report.residual] + [v for v in report.metadata.values() if isinstance(v, float)]
    return json.dumps(report.to_dict(), sort_keys=True), [v.hex() for v in floats]


def kernel_of(kind: str, p: int, q: int, n: int, rng) -> Kernel:
    if kind == "dense":
        return kernels.random_kernel(p, q, n, rng)
    if kind == "masked":  # zero-sum orbits outside the chosen cells
        cells = tuple(sorted(set(rng.integers(0, n, size=max(1, n - 1)).tolist())))
        return suites._masked_random_kernel(p, q, n, cells, rng)
    return Kernel.basis(p, q, tuple(rng.integers(0, n, size=p + q).tolist()), n)


def cases():
    """(f, g) for every order tuple of total <= 6 on 1-3 cells, of each kind."""
    rng = np.random.default_rng(909)
    out = []
    for a, b, c, d in hermite.order_tuples(6):
        for n in (1, 2, 3):
            for kind in ("dense", "masked", "basis"):
                out.append((kernel_of(kind, a, b, n, rng), kernel_of(kind, c, d, n, rng)))
    # Every expansion coefficient is kept, but the square has an exact zero.
    f = Kernel(1, 1, 2, [[1, -1], [1, 1]])
    out += [(f, Kernel.scalar(1.0, 2)), (f, kernels.random_kernel(1, 1, 2, rng))]
    return out


CASES = cases()


def reports(pairs) -> list:
    """Per case, the fingerprints of its checks' reports."""
    return [[fingerprint(report) for report in checks(f, g)] for f, g in pairs]


def checks(f, g) -> list:
    out = [
        chaos.product_check(f, g),
        chaos.product_conjugated_check(f, g),
        chaos.covariance_squares(f, g).report,
    ]
    if g.p + g.q == 0 and f.p + f.q <= 4:  # the criterion-8 orders, once each
        out += [chaos.hypercontractivity_check(f), chaos.isometry_check(f)]
    if f.p + f.q and g.p + g.q:
        out.append(chaos.independence_check(f, g))
    return out


@pytest.fixture
def cache(monkeypatch):
    fresh = kernels._ShapeCache()
    monkeypatch.setattr(kernels, "_SHAPE_CACHE", fresh)
    return fresh


def composed_reports(pairs) -> list:
    """``reports`` with the composition in place of the programs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_SHAPE_CACHE", kernels._ShapeCache())
        for name, reference in COMPOSITION.items():
            patch.setattr(chaos, name, reference)
        return reports(pairs)


@pytest.fixture(scope="module")
def composed():
    """The composition's reports."""
    return composed_reports(CASES)


class TestCheckPrograms:
    def test_cold_and_warm(self, cache, composed):
        assert reports(CASES) == composed  # cold: every plan is built
        assert reports(CASES) == composed  # warm

    def test_one_entry_cache(self, cache, composed, monkeypatch):
        # Every plan is built again on every call, so a seventh of the cases
        # (7 and the 9 kinds and cell counts per tuple are coprime).
        monkeypatch.setattr(kernels, "_CACHE_BYTES", 1)
        assert reports(CASES[::7]) == composed[::7]
        assert len(cache) == 1

    def test_dropped_expansion_coefficients_are_planned_once(self, cache, monkeypatch):
        # The constant terms of the two diagonal orbits cancel.
        f = Kernel(1, 1, 2, np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex))
        assert chaos.expand(f).layout[0] == "kept"
        g = kernels.random_kernel(1, 0, 2, np.random.default_rng(5))
        pairs = [(f, g), (g, f), (f, Kernel.scalar(2.0, 2))]
        expected = composed_reports(pairs)

        def fails(*args):
            raise AssertionError("the composition ran or a plan was built again")

        monkeypatch.setattr(ChaosPolynomial, "__mul__", fails)
        monkeypatch.setattr(oracle, "pair_expectation", fails)
        monkeypatch.setattr(oracle, "expectation", fails)
        assert reports(pairs) == expected
        kept = [key for key in cache if key[0] == "check" and "kept" in key]
        assert {key[1] for key in kept} == {"product", "product-conjugated", "covariance", "squares", "isometry"}
        # The second time every plan of the kept keys is a cache hit.
        monkeypatch.setattr(chaos, "_groups", fails)
        monkeypatch.setattr(oracle, "_join", fails)
        monkeypatch.setattr(oracle, "_diagonal", fails)
        cached = set(cache)
        assert reports(pairs) == expected
        assert set(cache) == cached

    def test_product_pair_is_validated_before_it_is_expanded(self, cache):
        rng = np.random.default_rng(3)
        f, g = kernels.random_kernel(4, 4, 5, rng), kernels.random_kernel(4, 4, 5, rng)
        h = kernels.random_kernel(1, 0, 4, rng)
        for check in (chaos.product_check, chaos.product_conjugated_check):
            with pytest.raises(ValueError, match="combined order exceeds cap") as error:
                check(f, g)
            assert type(error.value) is ValueError  # not WorkBudgetError
            with pytest.raises(ValueError, match="cell count mismatch: 5 vs 4"):
                check(f, h)
        assert len(cache) == 0

    def test_covariance_formula_matches_the_reference(self, cache):
        # Every order tuple of total <= 6, (0,0) factors included, on 1-3
        # cells, with dense, masked and basis kernels.
        for f, g in CASES:
            formula = chaos._covariance_program(f, g)[0]
            assert formula.hex() == covariance_formula(kernels.ito_symmetrize(f), kernels.ito_symmetrize(g)).hex()

    def test_asymptotic_diagnostics_match_the_reference(self, cache):
        # Two sequences of a dense, a masked and a basis kernel per order
        # tuple of total <= 6 and cell count; the largest norm is the fold of
        # the reference's norms in its order.
        rng = np.random.default_rng(31)
        for a, b, c, d in hermite.order_tuples(6):
            for n in (1, 2, 3):
                seqs = [
                    chaos.KernelSequence(label, tuple(kernel_of(kind, p, q, n, rng) for kind in ("dense", "masked", "basis")))
                    for label, p, q in (("f", a, b), ("g", c, d))
                ]
                for row in chaos.asymptotic_diagnostics(seqs):
                    entries = [s.entries[row.index] for s in seqs]
                    for pair, (i, j) in zip(row.pairs, ((0, 1), (1, 0)), strict=True):
                        _, covariance, norms = composed_covariance(entries[i], entries[j])
                        worst = 0.0
                        for value in norms.values():
                            worst = chaos.worst_of(worst, value)
                        assert pair.pair == (i, j)
                        assert pair.max_contraction_norm.hex() == worst.hex()
                        assert pair.covariance.hex() == covariance.hex()
                    moments = [composed_isometry(k)[0].hex() for k in entries]
                    assert [m.hex() for m in row.second_moments] == moments

    def test_inadmissible_first_order_contractions_are_zero(self, cache):
        # (1,0)x(1,0): no contraction against g is admissible, and against its
        # reversed conjugate only (1, 0) is.
        rng = np.random.default_rng(32)
        f, g = kernels.random_kernel(1, 0, 2, rng), kernels.random_kernel(1, 0, 2, rng)
        metadata = chaos.independence_check(f, g).metadata
        assert [metadata[f"with-{key}"] for key in ("kernel-10", "kernel-01", "reversed-01")] == [0.0] * 3
        reversed_10 = kernels.norm(kernels.contract(f, kernels.reversed_conjugate(g), kernels.ContractionSpec(1, 0)))
        assert metadata["with-reversed-10"] == reversed_10 > 0
        row = chaos.asymptotic_diagnostics([chaos.KernelSequence("f", (f,)), chaos.KernelSequence("g", (g,))])[0]
        assert row.pairs[0].max_contraction_norm == reversed_10

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_covariance_of_a_non_finite_kernel_fails(self, cache, bad):
        rng = np.random.default_rng(12)
        for a, b, c, d, n in [(2, 1, 1, 1, 2), (1, 1, 2, 2, 3), (2, 2, 0, 0, 2), (1, 0, 0, 1, 1)]:
            coeffs = kernels.random_kernel(a, b, n, rng).coeffs.copy()
            coeffs.flat[1 % coeffs.size] = bad
            f, g = Kernel(a, b, n, coeffs), kernels.random_kernel(c, d, n, rng)
            for left, right in ((f, g), (g, f)):
                with np.errstate(all="ignore"):
                    report = chaos.covariance_squares(left, right).report
                    expected = composed_reports([(left, right)])[0][2]
                assert not report.passed and fingerprint(report) == expected

    def test_product_term_of_order_zero(self, cache):
        # (1,0)x(0,1) and (1,1)x(1,1) pair every slot in one term, whose
        # contraction is a (0,0) kernel; the conjugated product of (1,0)x(1,0)
        # too.
        rng = np.random.default_rng(13)
        for n in (1, 2, 3):
            for orders, check in [
                ((1, 0, 0, 1), chaos.product_check),
                ((1, 1, 1, 1), chaos.product_check),
                ((1, 0, 1, 0), chaos.product_conjugated_check),
            ]:
                a, b, c, d = orders
                f, g = kernels.random_kernel(a, b, n, rng), kernels.random_kernel(c, d, n, rng)
                report = check(f, g)
                kind = "product" if check is chaos.product_check else "product-conjugated"
                contractions = cache[("check", kind, n, *orders)][0][2]
                assert any(plan[5] == () for plan, _ in contractions)
                conjugated = check is chaos.product_conjugated_check
                assert report.residual.hex() == composed_product(f, g, conjugated).hex()

    def test_one_plan_per_check_and_shape(self, cache):
        rng = np.random.default_rng(8)
        f, g = kernels.random_kernel(2, 1, 3, rng), kernels.random_kernel(1, 2, 3, rng)
        chaos.product_check(f, g)
        chaos.hypercontractivity_check(f)
        planned = set(cache)
        assert ("check", "product", 3, 2, 1, 1, 2) in planned
        assert ("check", "squares", 3, 2, 1) in planned
        f2, g2 = kernels.random_kernel(2, 1, 3, rng), kernels.random_kernel(1, 2, 3, rng)
        chaos.product_check(f2, g2)
        chaos.hypercontractivity_check(f2)
        assert set(cache) == planned

    def test_programs_symmetrize_from_their_own_orbit_sums(self, cache, monkeypatch):
        # No check program calls ito_symmetrize: each symmetrizes the kernels
        # it was given from the orbit sums of their expansions.
        rng = np.random.default_rng(33)
        f, g = kernels.random_kernel(2, 1, 3, rng), kernels.random_kernel(1, 2, 3, rng)
        seqs = [chaos.KernelSequence("f", (f,)), chaos.KernelSequence("g", (g,))]

        def run():
            out = [
                chaos.product_check(f, g),
                chaos.product_conjugated_check(f, g),
                chaos.covariance_squares(f, g).report,
                chaos.independence_check(f, g),
                chaos.isometry_check(f),
                chaos.hypercontractivity_check(f),
            ]
            return [fingerprint(report) for report in out] + [chaos.asymptotic_diagnostics(seqs)]

        expected = run()

        def fails(*args):
            raise AssertionError("a program symmetrized through ito_symmetrize")

        monkeypatch.setattr(kernels, "_SHAPE_CACHE", kernels._ShapeCache())
        for module, name in ((kernels, "ito_symmetrize"), (chaos, "ito_symmetrize"), (kernels, "_orbit_mean")):
            monkeypatch.setattr(module, name, fails)
        assert run() == expected

    def test_products_with_the_same_terms_share_their_expansion_plan(self, cache):
        # The conjugated product of (2,1)x(2,1) and the product of (2,1)x(1,2)
        # contract to terms of the same orders; so do (1,0)x(0,1) and (0,1)x(1,0).
        rng = np.random.default_rng(21)
        chaos.product_conjugated_check(kernels.random_kernel(2, 1, 3, rng), kernels.random_kernel(2, 1, 3, rng))
        chaos.product_check(kernels.random_kernel(2, 1, 3, rng), kernels.random_kernel(1, 2, 3, rng))
        chaos.product_check(kernels.random_kernel(1, 0, 3, rng), kernels.random_kernel(0, 1, 3, rng))
        chaos.product_check(kernels.random_kernel(0, 1, 3, rng), kernels.random_kernel(1, 0, 3, rng))

        def terms(kind, *orders):
            return cache[("check", kind, 3, *orders)][0][3]

        assert terms("product-conjugated", 2, 1, 2, 1) is terms("product", 2, 1, 1, 2)
        assert terms("product", 1, 0, 0, 1) is terms("product", 0, 1, 1, 0)


def reference_moment_factorization_gap(f, g, max_degree=6):
    """``chaos.moment_factorization_gap`` as it was before its power chains:
    every power rebuilt from the constant 1 by ``__pow__``."""
    pf = chaos.expand(f)
    pg = chaos.expand(g)
    pf_c = pf.conjugate()
    pg_c = pg.conjugate()
    pow_f: dict[tuple[int, int], ChaosPolynomial] = {}
    pow_g: dict[tuple[int, int], ChaosPolynomial] = {}

    def mixed(base, base_c, cache, lk):
        if lk not in cache:
            cache[lk] = (base ** lk[0]) * (base_c ** lk[1])
        return cache[lk]

    worst = 0.0
    for l1 in range(max_degree + 1):
        for k1 in range(max_degree + 1 - l1):
            left = mixed(pf, pf_c, pow_f, (l1, k1))
            e_left = oracle.expectation(left)
            for l2 in range(max_degree + 1 - l1 - k1):
                for k2 in range(max_degree + 1 - l1 - k1 - l2):
                    if l1 + k1 == 0 or l2 + k2 == 0:
                        continue
                    right = mixed(pg, pg_c, pow_g, (l2, k2))
                    joint = oracle.pair_expectation(left, right)
                    gap = abs(joint - e_left * oracle.expectation(right))
                    worst = chaos.worst_of(worst, gap)
    return worst


def gap_pairs():
    """Dense, masked and basis pairs of every non-degenerate order tuple of
    total <= 3 on 1-3 cells."""
    rng = np.random.default_rng(404)
    out = []
    for a, b, c, d in hermite.order_tuples(3):
        if a + b and c + d:
            for n in (1, 2, 3):
                for kind in ("dense", "masked", "basis"):
                    out.append((kernel_of(kind, a, b, n, rng), kernel_of(kind, c, d, n, rng)))
    return out


class TestPolynomialBatteries:
    def test_moment_gap_matches_the_reference(self, cache):
        first, second = chaos.coupled_decay_sequences(16)
        cases = [(f, g, degree) for f, g in zip(first.entries, second.entries) for degree in (4, 6)]
        pairs = gap_pairs()
        cases += [(f, g, 6) for f, g in pairs]
        # 10 is coprime with the 9 kinds and cell counts per order tuple.
        some = pairs[::10] + [(first.entries[0], second.entries[0])]
        cases += [(f, g, degree) for f, g in some for degree in range(7)]
        for f, g, degree in cases:
            gap = chaos.moment_factorization_gap(f, g, degree)
            assert gap.hex() == reference_moment_factorization_gap(f, g, degree).hex()

    def test_moment_gap_forms_each_power_once(self, cache, monkeypatch):
        products = []

        def counted(left, right, mul=ChaosPolynomial.__mul__):
            products.append(1)
            return mul(left, right)

        monkeypatch.setattr(ChaosPolynomial, "__mul__", counted)
        pairs = gap_pairs()
        for f, g in pairs[::10]:
            for degree in range(7):
                products.clear()
                chaos.moment_factorization_gap(f, g, degree)
                # Per kernel: the two chains, then one product per pattern.
                patterns = sum(1 for l in range(degree) for k in range(degree - l) if l + k)
                assert len(products) <= 2 * (2 * degree + patterns)

    def test_hermite_gram_values_are_the_wick_joins(self, cache, monkeypatch):
        values, join = {}, oracle.pair_expectation

        def recorded(left, right, gram=suites._gram_value):
            values[left.m, left.n, right.m, right.n] = value = gram(left, right)
            return value

        def fails(*args):
            raise AssertionError("a Wick join ran")

        monkeypatch.setattr(suites, "_gram_value", recorded)
        monkeypatch.setattr(oracle, "pair_expectation", fails)
        assert suites.hermite_orthogonality_report(max_degree=6).passed
        assert len(cache) == 0  # no polynomial was planned
        assert len(values) == 28 * 28
        for (m, n, mp, nq), value in values.items():
            left = chaos.hermite_to_chaos(hermite.build(m, n, 1), 0, 1)
            right = chaos.hermite_to_chaos(hermite.build(mp, nq, 1), 0, 1)
            assert join(left, right.conjugate()) == value


class TestJoinBudget:
    """The Wick join counts its pairs before forming them."""

    @staticmethod
    def sizes(f):
        poly = chaos.expand(f)
        square = poly * poly.conjugate()
        join = oracle._join(square, square)[0]
        return len(poly.re) ** 2, join.shape[1]

    def test_hypercontractivity_join_is_refused_before_it_runs(self, cache, monkeypatch):
        f = kernels.random_kernel(2, 2, 2, np.random.default_rng(4))
        square_pairs, join_pairs = self.sizes(f)
        assert square_pairs < join_pairs
        cache.clear()

        def fails(*args):
            raise AssertionError("the join or the square was formed")

        monkeypatch.setattr(oracle, "MAX_TERM_PAIRS", join_pairs - 1)
        monkeypatch.setattr(oracle, "_weights", fails)
        monkeypatch.setattr(chaos, "cmul", fails)
        monkeypatch.setattr(chaos, "_product_keys", fails)
        with pytest.raises(chaos.WorkBudgetError, match="Wick join .* work budget"):
            chaos.hypercontractivity_check(f)

    @pytest.mark.parametrize("n, order, pairs", [(5, (6, 2), 76_070_331), (6, (3, 3), 27_653_474)])
    def test_largest_squares_are_refused_before_they_are_formed(self, cache, monkeypatch, n, order, pairs):
        f = kernels.random_kernel(*order, n, np.random.default_rng(1))

        def fails(*args):
            raise AssertionError("the square or the join was planned")

        monkeypatch.setattr(chaos, "_product_keys", fails)
        monkeypatch.setattr(oracle, "_join", fails)
        with pytest.raises(chaos.WorkBudgetError, match=f"Wick join .* forms {pairs} term pairs"):
            chaos.hypercontractivity_check(f)

    def test_square_join_counts_match_the_joins(self, cache):
        for n, top in ((1, 6), (2, 6), (3, 6), (4, 4)):
            for a, b, c, d in hermite.order_tuples(top):
                left = chaos._square_plan(chaos._shape(n, a, b))[0]
                right = chaos._square_plan(chaos._shape(n, c, d))[0]
                assert chaos._square_keys(n, a, b) == len(left.z)
                assert chaos._square_keys(n, c, d) == len(right.z)
                joined = oracle.join_plan(left, right)[0].shape[1]
                assert chaos._square_join_pairs(n, (a, b), (c, d)) == joined, (n, a, b, c, d)

    def test_join_budget_is_inclusive(self, monkeypatch):
        # 12 x 1 terms, every pair joins.
        x = ChaosPolynomial(1, {((k,), (k,)): 1.0 for k in range(12)})
        y = ChaosPolynomial(1, {((0,), (0,)): 1.0})
        monkeypatch.setattr(oracle, "MAX_TERM_PAIRS", 11)
        with pytest.raises(chaos.WorkBudgetError, match="a Wick join of 12 x 1 terms forms 12"):
            oracle._join(x, y)
        monkeypatch.setattr(oracle, "MAX_TERM_PAIRS", 12)
        assert oracle._join(x, y)[0].shape == (2, 12)

    def test_run_past_the_join_budget_exits_2(self, cache, tmp_path, capsys, monkeypatch):
        f = kernels.random_kernel(2, 2, 2, np.random.default_rng(4))
        square_pairs, join_pairs = self.sizes(f)
        cache.clear()  # a join planned before the budget was lowered stays usable
        monkeypatch.setattr(oracle, "MAX_TERM_PAIRS", join_pairs - 1)
        entries = [
            {"idx": list(idx), "re": float(v.real), "im": float(v.imag)}
            for idx, v in np.ndenumerate(f.coeffs)
        ]
        scenario = {
            "measure": {"masses": [1.0, 1.0]},
            "kernels": [{"name": "f", "p": 2, "q": 2, "entries": entries}],
            "checks": [{"name": "hyper", "kind": "hypercontractivity", "f": "f"}],
        }
        path, report = tmp_path / "scenario.json", tmp_path / "out.json"
        path.write_text(json.dumps(scenario))
        assert cli.main(["run", str(path), "--report", str(report)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == "work-budget"
        assert "Wick join" in error["message"] and "work budget" in error["message"]
        assert json.loads(report.read_text()) == {"error": error}


def test_residual_digest_is_repeatable():
    argv = [sys.executable, str(ROOT / "tools" / "residual_digest.py"), "5", "--small"]
    first, second = (subprocess.run(argv, capture_output=True, text=True, check=True) for _ in range(2))
    lines = first.stdout.splitlines()
    kinds = [line.split()[0] for line in lines]
    assert kinds == [
        "product",
        "product-conjugated",
        "covariance",
        "hypercontractivity",
        "isometry",
        "conjugate",
        "zero-orbit",
        "independence",
        "polynomial",
        "mc",
    ]
    assert all(len(line.split()[1]) == 64 for line in lines)
    assert first.stdout == second.stdout
