"""The array-backed polynomial engine against the dict reference in
conftest: every operation must agree bit for bit on every key (evaluation,
which the reference does one point at a time, to rounding), products and
sums of two also in term order, and an exponent past the packed digit must
raise instead of wrapping.  Where a key's sum returns to 0 and the key comes
back, the dict re-inserts it last while the engine keeps it where it first
occurred; term order is not part of a polynomial's value, so those results
are compared key by key."""

import json
from operator import add, mul, sub

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from complexchaos import ChaosPolynomial, Kernel, chaos, hermite, kernels, oracle
from complexchaos.montecarlo import SamplePlan, evaluate_polynomial, sample_coordinates
from complexchaos.oracle import MAX_EXPONENT, expectation, pair_expectation
from conftest import DictPolynomial, dict_combination, dict_expand

# Sums of two such exponents stay within the digit, so products and joins
# never overflow; single polynomials also reach the limit itself.
SMALL = st.one_of(st.integers(0, 3), st.integers(60, 63))
LARGE = st.one_of(st.integers(0, 3), st.integers(MAX_EXPONENT - 7, MAX_EXPONENT))
# Few distinct coefficient values make exact cancellations common.
COEFFS = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, -0.5, 2.0, 1j, -1j, 1 + 1j, -1 - 1j]),
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def polynomial_pairs(draw, exponents=SMALL):
    """Two sparse polynomials in the same n <= 8 variables, drawing their
    keys from one small pool so that products and sums merge terms.  Up to
    12 terms each, so products group both few and many term pairs."""
    n = draw(st.integers(1, 8))
    vector = st.tuples(*[exponents] * n)
    pool = draw(st.lists(st.tuples(vector, vector), min_size=1, max_size=12, unique=True))
    polys = []
    for _ in range(2):
        keys = draw(st.lists(st.sampled_from(pool), max_size=12, unique=True))
        polys.append({key: draw(COEFFS) for key in keys})
    return n, polys[0], polys[1]


# Small integers, so that sums of terms cancel to exactly 0 and keys that
# come back after that are common.
ENTRIES = np.array([0, 1, -1, 2, -2, 1j, -1j, 1 - 1j])
ORDERS = [(p, q) for p in range(4) for q in range(4 - p)]
# Mixed orders share their low-degree keys across many orbits.
MIXED = [(1, 1), (2, 1), (1, 2)]


@st.composite
def integer_kernels(draw, n):
    """A kernel of order p + q <= 3 on n cells, mostly of mixed order, with
    entries drawn iid from ENTRIES (seeded, since hypothesis's own lists
    favour repeated entries, which rarely cancel)."""
    p, q = draw(st.one_of(st.sampled_from(MIXED), st.sampled_from(ORDERS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Kernel(p, q, n, rng.choice(ENTRIES, size=(n,) * (p + q)))


@st.composite
def many_parts(draw):
    """Three to twelve (terms, weight) parts on a pool of at most four keys,
    so that every key collects many terms, whose sums then often return to
    0 more than once (seeded, like ``integer_kernels``)."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = rng.integers(0, 3, (rng.integers(1, 5), 2, n)).tolist()
    pool = list(dict.fromkeys(tuple(map(tuple, key)) for key in keys))
    parts = []
    for _ in range(rng.integers(3, 13)):
        keys = [key for key in pool if rng.random() < 0.7] or pool[:1]
        terms = {key: complex(rng.choice([1, -1, 1, -1, 1, -1, 2, 1j])) for key in keys}
        parts.append((terms, int(rng.choice([1, -1, 1, -1, 2]))))
    return n, parts


def both(n, terms):
    return ChaosPolynomial(n, terms), DictPolynomial(n, terms)


def same_terms(poly, ref):
    return list(poly.terms.items()) == list(ref.terms.items())


def same_values(poly, ref):
    """Equal coefficients on equal keys, in whatever order."""
    return len(poly.re) == len(ref.terms) and dict(poly.terms) == ref.terms


def same_outcome(run, run_ref):
    """Equal values, or the same exception type from both."""
    try:
        value = run()
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            run_ref()
        return True
    return value == run_ref()


class TestAgainstDictReference:
    @settings(max_examples=150, deadline=None)
    @given(polynomial_pairs(), COEFFS)
    def test_ring_operations(self, pair, scalar):
        n, x_terms, y_terms = pair
        (x, rx), (y, ry) = both(n, x_terms), both(n, y_terms)
        assert same_terms(x * y, rx * ry)
        assert same_terms(x + y, rx + ry)
        assert same_terms(x - y, rx - ry)
        assert x.max_diff(y) == rx.max_diff(ry)
        assert same_terms(x.scaled(scalar), rx.scaled(scalar))
        assert same_terms(x.conjugate(), rx.conjugate())
        assert x.max_abs() == max((abs(c) for c in rx.terms.values()), default=0.0)

    @settings(max_examples=100, deadline=None)
    @given(polynomial_pairs())
    def test_oracle(self, pair):
        n, x_terms, y_terms = pair
        (x, rx), (y, ry) = both(n, x_terms), both(n, y_terms)
        assert same_outcome(lambda: expectation(x * y), lambda: (rx * ry).expectation())
        assert same_outcome(lambda: pair_expectation(x, y), lambda: rx.pair_expectation(ry))

    @settings(max_examples=60, deadline=None)
    @given(polynomial_pairs(st.integers(0, 3)))
    def test_oracle_on_squares(self, pair):
        n, x_terms, y_terms = pair
        (x, rx), (y, ry) = both(n, x_terms), both(n, y_terms)
        sq, rsq = x * y.conjugate(), rx * ry.conjugate()
        assert expectation(sq) == rsq.expectation()
        assert pair_expectation(sq, sq) == rsq.pair_expectation(rsq)

    @settings(max_examples=100, deadline=None)
    @given(polynomial_pairs(LARGE))
    def test_near_the_digit_limit(self, pair):
        n, x_terms, y_terms = pair
        (x, rx), (y, ry) = both(n, x_terms), both(n, y_terms)
        assert same_terms(x + y, rx + ry)
        assert same_terms(x - y, rx - ry)
        assert same_terms(x.conjugate(), rx.conjugate())
        assert x.max_diff(y) == rx.max_diff(ry)
        assert same_outcome(lambda: expectation(x), rx.expectation)

    @settings(max_examples=200, deadline=None)
    @given(many_parts())
    def test_sums_of_many_parts(self, case):
        # Keys whose sum cancels to 0 and comes back keep the sum of the
        # terms after their last cancellation.
        n, parts = case
        ref = DictPolynomial(n, {})
        for terms, weight in parts:
            ref = ref + DictPolynomial(n, terms).scaled(weight)
        total = chaos._sum_of(n, [(ChaosPolynomial(n, t), w) for t, w in parts])
        assert same_values(total, ref)

    @pytest.mark.parametrize("weight", [48, -1])
    def test_key_back_twice_goes_after_the_last_return(self, weight):
        # a comes back after its first cancellation, b arrives, a cancels
        # and comes back again: a holds what was added after its last
        # return, 2 * weight, whatever the parts' common weight.
        a, b = ((1,), (0,)), ((0,), (1,))
        steps = [{a: 1.0}, {a: -1.0}, {a: 1.0}, {b: 1.0}, {a: -1.0}, {a: 2.0}]
        total = chaos._sum_of(1, [(ChaosPolynomial(1, t), weight) for t in steps])
        assert dict(total.terms) == {a: 2.0 * weight + 0j, b: weight + 0j}

    @settings(max_examples=60, deadline=None)
    @given(polynomial_pairs(st.integers(0, 4)), st.integers(0, 2**32 - 1))
    def test_evaluation(self, pair, seed):
        # The reference evaluates one point at a time with Python's complex
        # powers, so the two agree to rounding on the scale of the terms.
        n, x_terms, y_terms = pair
        (x, rx), (y, ry) = both(n, x_terms), both(n, y_terms)
        z = sample_coordinates(SamplePlan(seed=seed, samples=5, n=n))
        prod, rprod = x * y, rx * ry
        moduli = DictPolynomial(n, {k: abs(c) for k, c in rprod.terms.items()})
        batch = evaluate_polynomial(prod, z)
        for k in range(len(z)):
            scale = moduli.evaluate(np.abs(z[k])).real
            assert abs(batch[k] - rprod.evaluate(z[k])) <= 1e-12 * scale
        scale = DictPolynomial(n, {k: abs(c) for k, c in x_terms.items()}).evaluate(np.abs(z[0]))
        assert abs(x.evaluate(z[0]) - rx.evaluate(z[0])) <= 1e-12 * scale.real


class TestExpansion:
    def test_cancelled_key_comes_back(self):
        # The constant term of z zbar - 1 goes -1, 0, -1 over the three
        # diagonal orbits.
        f = Kernel(1, 1, 3, np.diag([1.0, -1.0, 1.0]).astype(complex))
        assert same_values(chaos.expand(f), dict_expand(f))
        assert chaos.expand(f).terms[((0, 0, 0), (0, 0, 0))] == -1

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 3).flatmap(integer_kernels))
    def test_expand_matches_reference(self, f):
        assert same_values(chaos.expand(f), dict_expand(f))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 3).flatmap(lambda n: st.lists(integer_kernels(n), min_size=3, max_size=6)),
        st.lists(st.sampled_from([1, -1, 2, 6]), min_size=6, max_size=6),
    )
    def test_combination_matches_reference(self, kernels, weights):
        terms = [chaos.ProductTerm(w, f) for w, f in zip(weights, kernels)]
        ref = dict_combination((t.weight, t.kernel) for t in terms)
        combination = chaos._sum_of(kernels[0].n, [(chaos.expand(t.kernel), t.weight) for t in terms])
        assert same_values(combination, ref)


class TestDigitLimit:
    def key(self, e, n=2):
        return ((e,) + (0,) * (n - 1), (0,) * n)

    def test_constructor_rejects_exponents_past_the_digit(self):
        with pytest.raises(ValueError):
            ChaosPolynomial(2, {self.key(MAX_EXPONENT + 1): 1.0})
        with pytest.raises(ValueError):
            ChaosPolynomial(2, {((-1, 0), (0, 0)): 1.0})
        with pytest.raises(ValueError):
            ChaosPolynomial(2, {((1,), (0,)): 1.0})  # wrong length
        with pytest.raises(ValueError):
            ChaosPolynomial(2, {((1, 2, 3), (4,)): 1.0})  # right length, mis-split
        for exponent in (1.5, "1", 2**70):
            with pytest.raises(ValueError):
                ChaosPolynomial(2, {((exponent, 0), (0, 0)): 1.0})
        assert ChaosPolynomial(2, {self.key(MAX_EXPONENT): 1.0}).terms

    @pytest.mark.parametrize("cell", [0, 3, 7])
    def test_product_past_the_digit_raises(self, cell):
        def mono(e):
            a = tuple(e if k == cell else 1 for k in range(8))
            return ChaosPolynomial(8, {(a, a): 1.0})

        assert (mono(63) * mono(64)).terms  # digit 127: the last that fits
        with pytest.raises(ValueError):
            mono(64) * mono(64)
        with pytest.raises(ValueError):
            mono(64) * mono(64).conjugate()
        with pytest.raises(ValueError):
            mono(64) ** 2

    def test_join_past_the_digit_raises(self):
        # z^64 zbar^64 against itself: a true match whose exponent is 128.
        x = ChaosPolynomial(1, {((64,), (64,)): 1.0})
        with pytest.raises(ValueError):
            pair_expectation(x, x)
        # z1 zbar0 against zbar0^127: the packed surpluses agree although
        # the exponent surpluses (-1, 1) and (127, 0) do not.
        left = ChaosPolynomial(2, {((0, 1), (1, 0)): 1.0})
        right = ChaosPolynomial(2, {((0, 0), (127, 0)): 1.0})
        with pytest.raises(ValueError):
            pair_expectation(left, right)


class TestPlans:
    """Keys, groupings and joins are planned once per operand layout; the
    plans must not change a bit of any result, every polynomial must get a
    layout, and a layout must fix the keys and their order: that of a
    polynomial built from a mapping holds its keys, and that of a result
    that drops keys the keys it keeps."""

    @pytest.fixture
    def cache(self, monkeypatch):
        fresh = kernels._ShapeCache()
        monkeypatch.setattr(kernels, "_SHAPE_CACHE", fresh)
        return fresh

    @staticmethod
    def planned_once(operations, monkeypatch):
        """Run ``operations`` twice, the second time with every planning
        function patched to fail, so that every plan must be a cache hit."""
        operations()

        def fails(*args):
            raise AssertionError("planned again")

        monkeypatch.setattr(chaos, "_groups", fails)
        monkeypatch.setattr(oracle, "_join", fails)
        monkeypatch.setattr(oracle, "_diagonal", fails)
        operations()

    @staticmethod
    def grid_reports(pairs):
        reports = []
        for f, g in pairs:
            reports += [
                chaos.product_check(f, g),
                chaos.product_conjugated_check(f, g),
                chaos.covariance_squares(f, g).report,
                chaos.hypercontractivity_check(f),
            ]
        return json.dumps([r.to_dict() for r in reports])  # floats round-trip

    def test_cold_warm_and_evicted_plans_agree(self, cache, monkeypatch):
        rng = np.random.default_rng(11)
        pairs = [
            (kernels.random_kernel(a, b, n, rng), kernels.random_kernel(c, d, n, rng))
            for a, b, c, d in [(1, 1, 1, 0), (2, 0, 1, 1), (1, 2, 2, 1), (0, 0, 2, 2)]
            for n in (1, 2, 3)
        ]
        cold = self.grid_reports(pairs)
        assert any(key[0] == "pair" for key in cache)
        assert self.grid_reports(pairs) == cold
        monkeypatch.setattr(kernels, "_SHAPE_CACHE", kernels._ShapeCache())
        monkeypatch.setattr(kernels, "_CACHE_BYTES", 1)
        assert self.grid_reports(pairs) == cold
        assert len(kernels._SHAPE_CACHE) == 1

    def test_product_past_the_digit_raises_every_time(self, cache):
        power = {1: chaos.expand(Kernel.basis(1, 0, (0,), 1))}  # z
        for k in (2, 4, 8, 16, 32, 64):
            power[k] = power[k // 2] * power[k // 2]
        assert dict(power[64].terms) == {((64,), (0,)): 1}
        assert (power[64] * power[32]).layout is not None
        square = power[64] * power[64].conjugate()
        for _ in range(2):
            with pytest.raises(ValueError):
                power[64] * power[64]
            with pytest.raises(ValueError):
                pair_expectation(square, square)
        assert ("mul", power[64].layout, power[64].layout) not in cache
        assert ("pair", square.layout, square.layout) not in cache

    def test_dropped_coefficient_keeps_a_kept_key_layout(self, cache, monkeypatch):
        # The constant terms of the two diagonal orbits cancel.
        f = Kernel(1, 1, 2, np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex))
        x, rx = chaos.expand(f), dict_expand(f)
        keys = chaos._orbit_terms(2, 1, 1)[2]
        kind, layout, mask = x.layout
        kept = np.unpackbits(np.frombuffer(mask, np.uint8), count=keys.shape[1]).astype(bool)
        assert (kind, layout) == ("kept", ("expand", 2, 1, 1)) and not kept.all()
        assert np.array_equal(keys[:, kept], np.stack((x.z, x.zc))) and same_values(x, rx)
        z = chaos.expand(Kernel(1, 0, 2, [1.0, 1j]))
        assert z.layout == ("expand", 2, 1, 0)
        rz = DictPolynomial(2, dict(z.terms))
        s, d = z + z.conjugate(), z - z.conjugate()
        assert None not in (s.layout, d.layout)
        rs, rd = rz + rz.conjugate(), rz - rz.conjugate()
        prod, rprod = s * d, rs * rd  # z zbar cancels
        assert prod.layout[:2] == ("kept", ("mul", s.layout, d.layout)) and same_values(prod, rprod)
        assert (d - d).layout[0] == "kept" and not (d - d).terms

        def operations():
            for left, ref in ((prod, rprod), (x, rx)):
                assert same_values(left * s, ref * rs)
                assert same_values(left + s, ref + rs)
                assert left.max_diff(s) == ref.max_diff(rs)
                assert expectation(left * s) == (ref * rs).expectation()
                assert pair_expectation(left, s) == ref.pair_expectation(rs)

        self.planned_once(operations, monkeypatch)
        assert ("mul", prod.layout, s.layout) in cache and ("pair", x.layout, s.layout) in cache

    def test_polynomials_from_mappings_are_planned_once(self, cache, monkeypatch):
        (x, rx), (y, ry) = (
            both(2, {((1, 0), (0, 1)): 1 + 2j, ((0, 0), (0, 0)): -0.5, ((1, 1), (1, 0)): 1j}),
            both(2, {((0, 1), (1, 0)): 2.0, ((1, 0), (0, 1)): -1.0, ((0, 0), (0, 0)): 0.5 - 1j}),
        )

        def operations():
            assert same_terms(x * y, rx * ry)
            assert same_terms(x + y, rx + ry)
            assert x.max_diff(y) == rx.max_diff(ry)
            assert expectation(x * y) == (rx * ry).expectation()
            assert pair_expectation(x, y) == rx.pair_expectation(ry)

        self.planned_once(operations, monkeypatch)
        assert ("mul", x.layout, y.layout) in cache and ("pair", x.layout, y.layout) in cache

    def test_key_order_is_part_of_a_mapping_layout(self, cache):
        terms = {((1, 0), (0, 1)): 1.0, ((0, 0), (1, 1)): 2j, ((2, 0), (0, 0)): -1.0}
        (x, rx), (y, ry) = both(2, terms), both(2, dict(reversed(terms.items())))
        assert x.layout[0] == y.layout[0] == "terms" and x.layout != y.layout
        z, rz = both(2, {((0, 0), (1, 1)): 1.0, ((1, 0), (0, 1)): -1.0, ((0, 1), (0, 0)): 3.0})
        for poly, ref in ((x, rx), (y, ry), (x, rx)):  # each after the other's plans
            assert same_terms(poly * z, ref * rz)
            assert same_terms(poly + z, ref + rz)
            assert pair_expectation(poly, z) == ref.pair_expectation(rz)

    def test_constants_have_a_layout(self):
        key = np.zeros(1, dtype=np.int64).tobytes()  # the zero exponent vector
        one = ChaosPolynomial.constant(1.0, 3)
        assert one.layout == ("terms", 3, key, key)
        assert ChaosPolynomial.constant(-2j, 3).layout == one.layout
        assert ChaosPolynomial.constant(0, 3).layout == ChaosPolynomial.zero(3).layout == ("terms", 3, b"", b"")
        z = chaos.expand(Kernel(1, 0, 3, [1.0, 2.0, 1j]))
        assert z.layout == ("expand", 3, 1, 0)
        assert (z**0).layout == one.layout
        assert (z**2).layout == ("mul", ("mul", one.layout, z.layout), z.layout)
        assert same_terms(z**2, DictPolynomial(3, dict(z.terms)) * DictPolynomial(3, dict(z.terms)))

    def test_no_polynomial_lacks_a_layout(self):
        n = 2
        dropped = Kernel(1, 1, n, np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex))
        built = [
            ChaosPolynomial(n, {((1, 0), (0, 1)): 1.0, ((0, 1), (1, 0)): -1.0}),
            ChaosPolynomial.constant(2.0, n),
            ChaosPolynomial.constant(0, n),
            ChaosPolynomial.zero(n),
            chaos.expand(Kernel(1, 0, n, [1.0, 1j])),
            chaos.expand(dropped),
            chaos.hermite_to_chaos(hermite.build(2, 1, 1), 0, n),
        ]
        for a in built:
            results = [a.scaled(0.5), a.scaled(0), a.conjugate(), a**0, a**2]
            results += [op(a, b) for b in built for op in (add, sub, mul)]
            assert all(r.layout is not None for r in results)

    def test_moment_factorization_plans_once(self, cache, monkeypatch):
        rng = np.random.default_rng(3)

        def pair():
            return kernels.random_kernel(1, 1, 2, rng), kernels.random_kernel(1, 0, 2, rng)

        layouts = []

        def recorded(left, right, join=chaos.oracle.pair_expectation):
            layouts.append((left.layout, right.layout))
            return join(left, right)

        monkeypatch.setattr(chaos.oracle, "pair_expectation", recorded)
        f, g = pair()
        first = chaos.moment_factorization_gap(f, g, max_degree=4)
        assert layouts and all(None not in pair for pair in layouts)  # powers have layouts
        planned = set(cache)
        assert any(key[0] == "pair" for key in planned)
        chaos.moment_factorization_gap(*pair(), max_degree=4)
        assert set(cache) == planned  # equal shapes add no entry
        again = chaos.moment_factorization_gap(f, g, max_degree=4)
        assert again.hex() == first.hex()
        cache.clear()
        assert chaos.moment_factorization_gap(f, g, max_degree=4).hex() == first.hex()


class TestWorkBudget:
    def test_cap_size_square_is_refused_before_allocating(self, monkeypatch):
        # (4, 4) on 5 cells expands to 6,376 terms: its square would form
        # 40.7M term pairs and several GB of temporaries.
        f = kernels.random_kernel(4, 4, 5, np.random.default_rng(0))

        def allocates(*args):
            raise AssertionError("the product was formed")

        monkeypatch.setattr(chaos, "_product_keys", allocates)
        monkeypatch.setattr(chaos, "cmul", allocates)
        with pytest.raises(chaos.WorkBudgetError, match="work budget"):
            chaos.hypercontractivity_check(f)
        assert issubclass(chaos.WorkBudgetError, ValueError)

    def test_budget_is_inclusive(self, monkeypatch):
        x = ChaosPolynomial(1, {((k,), (0,)): 1.0 for k in range(3)})
        y = ChaosPolynomial(1, {((0,), (k,)): 1.0 for k in range(4)})
        monkeypatch.setattr(chaos.oracle, "MAX_TERM_PAIRS", 12)  # one bound, kept in oracle
        assert len((x * y).terms) == 12
        with pytest.raises(chaos.WorkBudgetError):
            y * y
        assert len(x.scaled(2.0).terms) == 3  # scaling forms no pairs
