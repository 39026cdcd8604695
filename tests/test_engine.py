"""The array-backed polynomial engine against the dict reference in
conftest: every operation must agree bit for bit, term order included
(evaluation, which the reference does one point at a time, to rounding),
and an exponent past the packed digit must raise instead of wrapping."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from complexchaos import ChaosPolynomial, Kernel, chaos
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
    @given(polynomial_pairs(), COEFFS, st.booleans())
    def test_ring_operations(self, pair, scalar, sort_keys):
        n, x_terms, y_terms = pair
        (x, rx), (y, ry) = both(n, x_terms), both(n, y_terms)
        # Few keys are grouped with a dict, many by sorting: try both.
        few = -1 if sort_keys else chaos._FEW_KEYS
        with mock.patch.object(chaos, "_FEW_KEYS", few):
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
    @given(many_parts(), st.booleans())
    def test_sums_of_many_parts(self, case, sort_keys):
        # Keys whose sum cancels to 0 and comes back move to the end; few
        # terms are summed one by one, many by sorting.
        n, parts = case
        ref = DictPolynomial(n, {})
        for terms, weight in parts:
            ref = ref + DictPolynomial(n, terms).scaled(weight)
        few = -1 if sort_keys else chaos._FEW_KEYS
        with mock.patch.object(chaos, "_FEW_KEYS", few):
            total = chaos._sum_of(n, [(ChaosPolynomial(n, t), w) for t, w in parts])
        assert same_terms(total, ref)

    @pytest.mark.parametrize("few", [chaos._FEW_KEYS, -1])
    def test_key_back_twice_goes_after_the_last_return(self, few):
        # a comes back after its first cancellation, b arrives, a cancels
        # and comes back again: the dict then holds b before a.
        a, b = ((1,), (0,)), ((0,), (1,))
        steps = [{a: 1.0}, {a: -1.0}, {a: 1.0}, {b: 1.0}, {a: -1.0}, {a: 2.0}]
        with mock.patch.object(chaos, "_FEW_KEYS", few):
            total = chaos._sum_of(1, [(ChaosPolynomial(1, t), 1) for t in steps])
        assert list(total.terms.items()) == [(b, 1 + 0j), (a, 2 + 0j)]

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
    def test_cancelled_key_comes_back_last(self):
        # The constant term of z zbar - 1 goes -1, 0 (dropped), -1 over
        # the three diagonal orbits, so it ends up after cells 0 and 1.
        f = Kernel(1, 1, 3, np.diag([1.0, -1.0, 1.0]).astype(complex))
        assert same_terms(chaos.expand(f), dict_expand(f))
        assert list(chaos.expand(f).terms)[2] == ((0, 0, 0), (0, 0, 0))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 3).flatmap(integer_kernels), st.booleans())
    def test_expand_matches_reference(self, f, sort_keys):
        few = -1 if sort_keys else chaos._FEW_KEYS
        with mock.patch.object(chaos, "_FEW_KEYS", few):
            assert same_terms(chaos.expand(f), dict_expand(f))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 3).flatmap(lambda n: st.lists(integer_kernels(n), min_size=3, max_size=6)),
        st.lists(st.sampled_from([1, -1, 2, 6]), min_size=6, max_size=6),
        st.booleans(),
    )
    def test_combination_matches_reference(self, kernels, weights, sort_keys):
        terms = [chaos.ProductTerm(w, f) for w, f in zip(weights, kernels)]
        ref = dict_combination((t.weight, t.kernel) for t in terms)
        few = -1 if sort_keys else chaos._FEW_KEYS
        with mock.patch.object(chaos, "_FEW_KEYS", few):
            assert same_terms(chaos._combination_expand(terms, kernels[0].n), ref)


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
