"""Tensor algebra: symmetrizations, contractions, conjugation, norms."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from complexchaos import (
    MAX_CELLS,
    MAX_TOTAL_ORDER,
    ContractionSpec,
    DiscreteMeasure,
    Kernel,
    contract,
    expand,
    indicator_to_orthonormal,
    inner,
    ito_symmetrize,
    norm,
    ordinary_symmetrize,
    random_kernel,
    reversed_conjugate,
)
from complexchaos import kernels as kernels_module
from conftest import brute_block_symmetrize, reference_contract, reference_orbit_table


@st.composite
def kernels(draw, max_total: int = 4, max_cells: int = 3):
    p = draw(st.integers(0, max_total))
    q = draw(st.integers(0, max_total - p))
    n = draw(st.integers(1, max_cells))
    size = n ** (p + q)
    values = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    re = draw(st.lists(values, min_size=size, max_size=size))
    im = draw(st.lists(values, min_size=size, max_size=size))
    coeffs = (np.asarray(re) + 1j * np.asarray(im)).reshape((n,) * (p + q))
    return Kernel(p, q, n, coeffs)


@st.composite
def kernel_pairs(draw, max_total: int = 3, max_cells: int = 3):
    """Two kernels sharing cell count (orders may differ)."""
    f = draw(kernels(max_total, max_cells))
    p = draw(st.integers(0, max_total))
    q = draw(st.integers(0, max_total - p))
    size = f.n ** (p + q)
    values = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    re = draw(st.lists(values, min_size=size, max_size=size))
    im = draw(st.lists(values, min_size=size, max_size=size))
    g = Kernel(p, q, f.n, (np.asarray(re) + 1j * np.asarray(im)).reshape((f.n,) * (p + q)))
    return f, g


class TestMeasure:
    def test_masses_validated(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([])
        with pytest.raises(ValueError):
            DiscreteMeasure([1.0, 0.0])
        with pytest.raises(ValueError):
            DiscreteMeasure([1.0, -2.0])
        with pytest.raises(ValueError):
            DiscreteMeasure([math.inf])
        with pytest.raises(ValueError):
            DiscreteMeasure([1.0] * (MAX_CELLS + 1))

    def test_cell_count(self):
        assert DiscreteMeasure([1.0, 0.5]).n == 2


class TestKernelConstruction:
    def test_caps_enforced(self):
        with pytest.raises(ValueError):
            Kernel.zeros(5, 4, 2)
        with pytest.raises(ValueError):
            Kernel.zeros(1, 0, MAX_CELLS + 1)
        with pytest.raises(ValueError):
            Kernel(1, 1, 2, np.zeros((2, 3)))
        Kernel.zeros(MAX_TOTAL_ORDER, 0, 1)

    def test_scalar_kernel(self):
        k = Kernel.scalar(2 - 1j)
        assert k.order == (0, 0)
        assert complex(k.coeffs) == 2 - 1j
        assert norm(k) == pytest.approx(abs(2 - 1j))

    def test_coeffs_are_frozen_copies(self):
        src = np.zeros((2, 2), dtype=complex)
        k = Kernel(1, 1, 2, src)
        src[0, 0] = 5.0
        assert k.coeffs[0, 0] == 0.0
        with pytest.raises(ValueError):
            k.coeffs[0, 0] = 1.0


class TestItoSymmetrize:
    def test_singleton_blocks_unchanged(self):
        f = Kernel.basis(1, 1, (0, 1), 2)
        assert ito_symmetrize(f).isclose(f)

    def test_two_slot_average(self):
        # e1 x e2 at (2,0) -> (e1 x e2 + e2 x e1) / 2, squared norm 1/2
        f = Kernel.basis(2, 0, (0, 1), 2)
        sym = ito_symmetrize(f)
        expected = 0.5 * (f + Kernel.basis(2, 0, (1, 0), 2))
        assert sym.isclose(expected)
        assert norm(sym) ** 2 == pytest.approx(0.5)

    def test_already_symmetric_fixed(self):
        f = Kernel.basis(2, 1, (0, 0, 1), 2)
        assert ito_symmetrize(f).isclose(f)

    @settings(max_examples=40, deadline=None)
    @given(kernels())
    def test_matches_brute_enumeration(self, f):
        blocks = [list(range(f.p)), list(range(f.p, f.p + f.q))]
        expected = brute_block_symmetrize(f, blocks)
        assert np.allclose(ito_symmetrize(f).coeffs, expected, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(kernels())
    def test_projection_and_norm_inequality(self, f):
        sym = ito_symmetrize(f)
        assert ito_symmetrize(sym).isclose(sym, rtol=1e-12, atol=1e-12)
        assert norm(sym) <= norm(f) + 1e-12

    def test_norm_inequality_strict_for_asymmetric(self):
        f = Kernel.basis(2, 0, (0, 1), 2)
        assert norm(ito_symmetrize(f)) < norm(f) - 0.1

    def test_orbit_mean_is_the_identity_exactly_when_every_orbit_is_one_entry(self):
        # One cell, or no block of two slots: every orbit is one entry, and
        # orbit_mean hands back its input (and ito_symmetrize its kernel).
        rng = np.random.default_rng(4)
        for n in (1, 2, 3):
            for p, q in itertools.product(range(4), repeat=2):
                f = random_kernel(p, q, n, rng)
                ids, sizes, _, _ = kernels_module.orbit_table(n, p, q)
                mean = kernels_module.orbit_mean(f.coeffs, ids, sizes)
                identity = n == 1 or max(p, q) <= 1
                assert (mean is f.coeffs) is identity
                assert (ito_symmetrize(f) is f) is identity
                sums = kernels_module.orbit_sums(f.coeffs, ids)
                assert np.array_equal(mean, kernels_module.orbit_mean(f.coeffs, ids, sizes, sums))


class TestOrdinarySymmetrize:
    def test_mixes_across_blocks(self):
        f = Kernel.basis(1, 1, (0, 1), 2)
        sym = ordinary_symmetrize(f)
        expected = 0.5 * (f + Kernel.basis(1, 1, (1, 0), 2))
        assert sym.isclose(expected)
        assert not sym.isclose(ito_symmetrize(f))

    def test_diagonal_fixed(self):
        for p, q in [(2, 0), (1, 1), (0, 2)]:
            f = Kernel.basis(p, q, (0, 0), 2)
            assert ordinary_symmetrize(f).isclose(f)

    def test_three_slot_enumeration(self):
        f = Kernel.basis(3, 0, (0, 1, 2), 3)
        expected = brute_block_symmetrize(f, [[0, 1, 2]])
        assert np.allclose(ordinary_symmetrize(f).coeffs, expected, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(kernels())
    def test_matches_brute_enumeration(self, f):
        expected = brute_block_symmetrize(f, [list(range(f.p + f.q))])
        assert np.allclose(ordinary_symmetrize(f).coeffs, expected, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(kernels())
    def test_projection_and_block_compatibility(self, f):
        sym = ordinary_symmetrize(f)
        assert ordinary_symmetrize(sym).isclose(sym, rtol=1e-12, atol=1e-12)
        # fully symmetric kernels are in particular block-symmetric
        assert ito_symmetrize(sym).isclose(sym, rtol=1e-12, atol=1e-12)


class TestCapAdjacentSymmetrize:
    """Orders at the total-order cap on 4 cells, where summing all p! q!
    transposes would be slow, checked against per-entry permutation means."""

    @pytest.mark.parametrize("p, q", [(8, 0), (4, 4)])
    def test_orbit_mean(self, p, q):
        f = random_kernel(p, q, 4, np.random.default_rng(8))
        sym = ito_symmetrize(f)
        assert ito_symmetrize(sym).isclose(sym, rtol=1e-12, atol=1e-12)
        assert expand(f).max_diff(expand(sym)) <= 1e-12
        blocks = [np.array(list(itertools.permutations(range(k)))) for k in (p, q)]
        for idx in [(0,) * (p + q), tuple(k % 4 for k in range(p + q)), (3, 1, 1, 0, 2, 3, 0, 1)]:
            first, second = np.array(idx[:p]), np.array(idx[p:])
            left = first[blocks[0]] if p else np.zeros((1, 0), dtype=int)
            right = second[blocks[1]] if q else np.zeros((1, 0), dtype=int)
            cells = np.concatenate(
                [np.repeat(left, len(right), axis=0), np.tile(right, (len(left), 1))], axis=1
            )
            expected = f.coeffs[tuple(cells.T)].mean()
            assert abs(sym.coeffs[idx] - expected) <= 1e-12


class TestShapeCache:
    """Orbit tables and expansion arrays share one byte budget with
    least-recently-used eviction."""

    @pytest.fixture
    def cache(self, monkeypatch):
        fresh = kernels_module._ShapeCache()
        monkeypatch.setattr(kernels_module, "_SHAPE_CACHE", fresh)
        return fresh

    @staticmethod
    def entry(key):
        return kernels_module.cached_by_shape(key, lambda: (np.zeros(10),))  # 80 bytes

    def test_least_recently_used_goes_first(self, cache, monkeypatch):
        monkeypatch.setattr(kernels_module, "_CACHE_BYTES", 160)
        first = self.entry("a")
        self.entry("b")
        assert self.entry("a") is first  # a hit, and now the most recent
        self.entry("c")
        assert list(cache) == ["a", "c"]

    def test_newest_entry_stays_over_budget(self, cache, monkeypatch):
        monkeypatch.setattr(kernels_module, "_CACHE_BYTES", 1)
        self.entry("a")
        self.entry("b")
        assert list(cache) == ["b"]

    def test_running_total_is_the_sum_of_the_entries(self, cache, monkeypatch):
        monkeypatch.setattr(kernels_module, "_CACHE_BYTES", 400)

        def consistent():
            return cache.nbytes == sum(size for _, size in cache.values())

        self.entry("a")
        self.entry("b")
        self.entry("a")  # a hit
        assert consistent() and cache.nbytes == 160
        # "c" is built again while its first build runs, as two threads may
        # build one entry: the second insert replaces the first.
        kernels_module.cached_by_shape("c", lambda: (self.entry("c")[0], np.zeros(20)))
        assert consistent() and cache.nbytes == 400 and list(cache) == ["b", "a", "c"]
        self.entry("d")  # evicts "b"
        assert consistent() and list(cache) == ["a", "c", "d"]
        cache.clear()
        assert cache.nbytes == 0

    def test_results_do_not_depend_on_eviction(self, cache, monkeypatch):
        rng = np.random.default_rng(3)
        shapes = [(2, 1, 3), (1, 2, 2), (3, 0, 2), (2, 1, 3)]
        fs = [random_kernel(p, q, n, rng) for p, q, n in shapes]
        roomy = [(expand(f).terms, ito_symmetrize(f).coeffs) for f in fs]
        cache.clear()
        monkeypatch.setattr(kernels_module, "_CACHE_BYTES", 1)
        for f, (terms, sym) in zip(fs, roomy):
            assert list(expand(f).terms.items()) == list(terms.items())
            assert np.array_equal(ito_symmetrize(f).coeffs, sym)
            assert len(cache) == 1


def same_tables(table, reference) -> bool:
    return all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(table, reference, strict=True)
    )


class TestOrbitTable:
    """The sort-free table equals the np.unique one byte for byte."""

    SAMPLE = [
        (5, 4, 4), (5, 0, 6), (5, 3, 2), (6, 2, 2), (6, 5, 0), (6, 0, 1),
        (7, 1, 3), (7, 0, 0), (7, 2, 4), (8, 2, 3), (8, 5, 0), (8, 1, 1),
    ]

    @pytest.fixture
    def cache(self, monkeypatch):
        fresh = kernels_module._ShapeCache()
        monkeypatch.setattr(kernels_module, "_SHAPE_CACHE", fresh)
        return fresh

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_small_cell_counts(self, cache, n):
        for p in range(9):
            for q in range(9 - p):
                table = kernels_module.orbit_table(n, p, q)
                assert same_tables(table, reference_orbit_table(n, p, q)), (n, p, q)

    @pytest.mark.parametrize("n, p, q", SAMPLE)
    def test_sample_of_larger_cell_counts(self, cache, n, p, q):
        assert same_tables(kernels_module.orbit_table(n, p, q), reference_orbit_table(n, p, q))

    @pytest.mark.parametrize("n, p, q", [(3, 4, 0), (3, 0, 4), (4, 3, 2), (2, 5, 3)])
    def test_chunks_do_not_change_the_table(self, cache, monkeypatch, n, p, q):
        monkeypatch.setattr(kernels_module, "_RANK_CHUNK", n)  # one slot per chunk
        assert same_tables(kernels_module.orbit_table(n, p, q), reference_orbit_table(n, p, q))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_last_position_holds_the_last_orbit(self, cache, n):
        # orbit_sums sizes its sums by this rule, without a pass over ids.
        for p in range(9):
            for q in range(9 - p):
                ids, sizes, _, _ = kernels_module.orbit_table(n, p, q)
                assert ids[-1] == len(sizes) - 1 == ids.max(), (n, p, q)


def bincount_sums(coeffs: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference for kernels.orbit_sums: one float bincount per part."""
    return np.bincount(ids, coeffs.real.ravel()), np.bincount(ids, coeffs.imag.ravel())


def same_sums(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal as int64 bit patterns (signs of zeros included) wherever
    ``want`` is not NaN, and NaN exactly where ``want`` is.  Which of two
    NaNs a sum keeps is left open: numpy's complex ``add.at`` keeps the
    added value's in the imaginary part, where ``bincount`` keeps the sum's."""
    nan = np.isnan(want)
    return (
        got.dtype == want.dtype
        and got.shape == want.shape
        and np.array_equal(np.isnan(got), nan)
        and np.array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])
    )


def special_tensor(shape: tuple, rng) -> np.ndarray:
    """A complex tensor whose parts mix +-0.0, +-inf, NaN and plain values,
    so its orbit sums meet -0.0 + -0.0, inf - inf and NaN payloads."""
    values = np.array([0.0, -0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.25, 1e308])
    out = np.empty(shape, dtype=complex)
    out.real = rng.choice(values, size=shape)
    out.imag = rng.choice(values, size=shape)
    return out


class TestOrbitSums:
    """One complex add.at pass equals a float bincount per part, bit for bit."""

    @staticmethod
    def check(coeffs: np.ndarray, p: int, q: int) -> None:
        n = coeffs.shape[0] if coeffs.ndim else 1
        ids = kernels_module.orbit_table(n, p, q)[0]
        with np.errstate(over="ignore", invalid="ignore"):  # add.at warns on inf - inf, bincount does not
            sums = kernels_module.orbit_sums(coeffs, ids)
        for got, want in zip(sums, bincount_sums(coeffs, ids), strict=True):
            assert same_sums(got, want), (n, p, q)

    @staticmethod
    def tensors(n: int, rng) -> list[tuple[np.ndarray, int, int]]:
        """Per order of total <= 4 on n cells: a C-contiguous random kernel,
        a reversed conjugate (transposed strides) and a special tensor, then
        contraction outputs (interleaved views) of every admissible pairing."""
        cases = []
        shapes = [(p, q) for p in range(5) for q in range(5 - p)]
        for p, q in shapes:
            f = random_kernel(p, q, n, rng)
            cases += [(f.coeffs, p, q), (reversed_conjugate(random_kernel(q, p, n, rng)).coeffs, p, q)]
            cases.append((special_tensor((n,) * (p + q), rng), p, q))
        for (p1, q1), (p2, q2) in itertools.product([(1, 1), (2, 1), (1, 2), (2, 2)], repeat=2):
            f, g = random_kernel(p1, q1, n, rng), random_kernel(p2, q2, n, rng)
            for i in range(min(p1, q2) + 1):
                for j in range(min(q1, p2) + 1):
                    h = contract(f, g, ContractionSpec(i, j))
                    cases.append((h.coeffs, h.p, h.q))
        return cases

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_bincount_per_part(self, n, rng):
        cases = self.tensors(n, rng)
        if n > 1:  # the views really are not C-contiguous
            assert sum(not c.flags.c_contiguous for c, _, _ in cases) >= 20
        for coeffs, p, q in cases:
            self.check(coeffs, p, q)

    def test_zero_order_kernel(self):
        for value in (1.5 - 2j, complex(-0.0, -0.0), complex(np.inf, np.nan)):
            coeffs = Kernel.scalar(value).coeffs
            assert coeffs.ndim == 0
            self.check(coeffs, 0, 0)

    @pytest.mark.parametrize("slots", range(7))
    def test_one_entry_tensor_equals_add_at(self, slots):
        """A 0-d or 1-cell tensor is its own orbit: its sums carry the same
        float.hex as one add.at into +0.0 (NaN has one hex)."""
        parts = (1.5, -2.25, 0.0, -0.0, np.inf, -np.inf, np.nan)
        for value in itertools.product(parts, repeat=2):
            coeffs = np.full((1,) * slots, complex(*value))
            want = np.zeros(1, dtype=complex)
            with np.errstate(invalid="ignore"):
                np.add.at(want, [0], coeffs.ravel())
            for p in range(slots + 1):
                ids = kernels_module.orbit_table(1, p, slots - p)[0]
                re, im = kernels_module.orbit_sums(coeffs, ids)
                assert [x.hex() for x in (*re, *im)] == [want.real[0].hex(), want.imag[0].hex()]

    @pytest.mark.parametrize("chunk", [1, 3, 10])
    def test_blocks_do_not_change_the_sums(self, monkeypatch, rng, chunk):
        cases = self.tensors(3, rng) + [(special_tensor((3,) * 5, rng), 3, 2)]
        monkeypatch.setattr(kernels_module, "_RANK_CHUNK", chunk)
        for coeffs, p, q in cases:
            self.check(coeffs, p, q)

    def test_large_view_is_not_copied_whole(self, rng):
        f = reversed_conjugate(random_kernel(4, 4, 5, rng))  # 390,625 entries
        assert f.coeffs.size > kernels_module._RANK_CHUNK and not f.coeffs.flags.c_contiguous
        ids = kernels_module.orbit_table(5, 4, 4)[0]
        tracemalloc.start()
        try:
            sums = kernels_module.orbit_sums(f.coeffs, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < f.coeffs.nbytes // 4
        for got, want in zip(sums, bincount_sums(f.coeffs, ids), strict=True):
            assert same_sums(got, want)


class TestReversedConjugate:
    def test_definition_unfold(self):
        c = 2.0 + 3.0j
        f = c * Kernel.basis(1, 1, (0, 1), 2)
        h = reversed_conjugate(f)
        assert h.order == (1, 1)
        expected = c.conjugate() * Kernel.basis(1, 1, (1, 0), 2)
        assert h.isclose(expected)

    def test_real_symmetric_fixed_point(self):
        arr = np.array([[1.0, 2.0], [2.0, 5.0]], dtype=complex)
        f = Kernel(1, 1, 2, arr)
        assert reversed_conjugate(f).isclose(f)

    @settings(max_examples=40, deadline=None)
    @given(kernels())
    def test_involution_and_norm(self, f):
        h = reversed_conjugate(f)
        assert h.order == (f.q, f.p)
        assert reversed_conjugate(h).isclose(f, rtol=1e-12, atol=1e-12)
        assert norm(h) == pytest.approx(norm(f))


class TestContract:
    def test_full_contraction_scalar(self):
        f = Kernel.basis(1, 1, (0, 1), 2)
        g = Kernel.basis(1, 1, (1, 0), 2)
        out = contract(f, g, ContractionSpec(1, 1))
        assert out.order == (0, 0)
        assert complex(out.coeffs) == pytest.approx(1.0)

    def test_single_slot_sum(self):
        f = Kernel.basis(1, 1, (0, 1), 2)
        g = Kernel.basis(1, 1, (1, 0), 2)
        out = contract(f, g, ContractionSpec(1, 0))
        assert out.isclose(Kernel.basis(1, 1, (1, 1), 2))

    def test_out_of_range_is_zero(self):
        f = Kernel.basis(2, 0, (0, 1), 2)
        g = Kernel.basis(2, 0, (0, 1), 2)
        out = contract(f, g, ContractionSpec(1, 0))  # i > p1 ^ q2 = 0
        assert norm(out) == 0.0

    def test_tensor_product(self):
        f = Kernel.basis(1, 0, (0,), 2)
        g = Kernel.basis(0, 1, (1,), 2)
        out = contract(f, g, ContractionSpec(0, 0))
        assert out.order == (1, 1)
        assert out.isclose(Kernel.basis(1, 1, (0, 1), 2))

    def test_mismatched_cells_rejected(self):
        with pytest.raises(ValueError):
            contract(Kernel.zeros(1, 0, 2), Kernel.zeros(0, 1, 3), ContractionSpec(0, 0))

    def test_slot_bookkeeping_against_loops(self, rng):
        # order (2,1) x (1,2) with one pairing each way, checked by raw sums
        f = random_kernel(2, 1, 2, rng)
        g = random_kernel(1, 2, 2, rng)
        out = contract(f, g, ContractionSpec(1, 1))
        n = 2
        expected = np.zeros((n, n) * 1 + (n,) * 0, dtype=complex)
        expected = np.zeros((n, n), dtype=complex)
        # result[t1; s1] with t1 from f (p1-i=1 slot), s1 from g (q2-i=1 slot)
        for t1 in range(n):
            for s1 in range(n):
                total = 0j
                for u in range(n):
                    for v in range(n):
                        total += f.coeffs[t1, u, v] * g.coeffs[v, s1, u]
                expected[t1, s1] = total
        assert np.allclose(out.coeffs, expected, atol=1e-12)
        assert out.order == (1, 1)

    @settings(max_examples=30, deadline=None)
    @given(kernel_pairs(), st.integers(0, 3), st.integers(0, 3))
    def test_bilinearity_and_cauchy_schwarz(self, pair, i, j):
        f, g = pair
        spec = ContractionSpec(i, j)
        f2 = Kernel(f.p, f.q, f.n, np.roll(f.coeffs, 1) if f.coeffs.ndim else f.coeffs)
        lhs = contract(0.5 * f + 2j * f2, g, spec)
        rhs = 0.5 * contract(f, g, spec) + 2j * contract(f2, g, spec)
        scale = max(1.0, norm(f), norm(f2)) * max(1.0, norm(g))
        assert norm(lhs - rhs) <= 1e-12 * scale
        assert norm(contract(f, g, spec)) <= norm(f) * norm(g) + 1e-12 * scale


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit (signs of zeros included), in shape and in strides."""
    return a.shape == b.shape and a.strides == b.strides and a.tobytes() == b.tobytes()


def both_layouts(p: int, q: int, n: int, rng) -> list[Kernel]:
    """A random (p, q) kernel in C order and one whose strides are permuted
    (a reversed conjugate keeps its transposed strides)."""
    return [random_kernel(p, q, n, rng), reversed_conjugate(random_kernel(q, p, n, rng))]


class TestPlannedContract:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_tensordot_bit_for_bit(self, n, rng):
        # Every admissible (p1, q1, p2, q2, i, j) with p + q <= 4 per kernel,
        # on operands of both stride orders; 0-d results included.
        cases = 0
        shapes = [(p, q) for p in range(5) for q in range(5 - p)]
        for (p1, q1), (p2, q2) in itertools.product(shapes, shapes):
            for f, g in itertools.product(both_layouts(p1, q1, n, rng), both_layouts(p2, q2, n, rng)):
                for i in range(min(p1, q2) + 1):
                    for j in range(min(q1, p2) + 1):
                        out = contract(f, g, ContractionSpec(i, j))
                        ref = reference_contract(f, g, i, j)
                        assert out.order == ref.order and out.n == n
                        assert same_array(out.coeffs, ref.coeffs), (p1, q1, p2, q2, i, j)
                        cases += 1
        assert cases == 4 * 574  # 574 admissible cases, four layout pairs each

    def test_internally_built_kernels_are_read_only(self, rng):
        f = random_kernel(2, 1, 2, rng)
        g = random_kernel(1, 2, 2, rng)
        s = Kernel.scalar(1 + 2j)
        built = [
            f,
            contract(f, g, ContractionSpec(1, 1)),
            contract(s, s, ContractionSpec(0, 0)),
            ito_symmetrize(f),
            ordinary_symmetrize(f),
            reversed_conjugate(f),
            reversed_conjugate(s),
            f + f,
            f - f,
            -f,
            2j * f,
            s + s,
            -s,
            s * 3,
        ]
        for k in built:
            assert isinstance(k.coeffs, np.ndarray)
            assert k.coeffs.dtype == np.complex128 and k.coeffs.shape == (k.n,) * (k.p + k.q)
            assert not k.coeffs.flags.writeable
            with pytest.raises(ValueError):
                k.coeffs[(0,) * k.coeffs.ndim] = 1.0

    def test_adopted_strides_are_the_public_copys(self, rng):
        for f, g in itertools.product(both_layouts(2, 1, 3, rng), both_layouts(2, 1, 3, rng)):
            for k in (f + g, f - g, -f, f * (0.5 - 1j), ito_symmetrize(f), reversed_conjugate(f)):
                assert same_array(k.coeffs, Kernel(k.p, k.q, k.n, k.coeffs).coeffs)

    @settings(max_examples=40, deadline=None)
    @given(kernels())
    def test_norm_is_numpys_bit_for_bit(self, f):
        for k in (f, reversed_conjugate(f)):
            assert norm(k).hex() == float(np.linalg.norm(k.coeffs)).hex()


class TestNormInner:
    def test_norm_examples(self):
        f = Kernel.basis(2, 0, (0, 1), 2)
        assert norm(f) == pytest.approx(1.0)
        assert norm(ito_symmetrize(f)) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_inner_self_is_norm_squared(self, rng):
        f = random_kernel(2, 1, 3, rng)
        assert inner(f, f) == pytest.approx(norm(f) ** 2)

    def test_orthogonal_tensors(self):
        assert inner(Kernel.basis(2, 0, (0, 1), 2), Kernel.basis(2, 0, (1, 0), 2)) == 0.0

    def test_conjugate_linear_in_second_argument(self, rng):
        f = random_kernel(1, 1, 2, rng)
        g = random_kernel(1, 1, 2, rng)
        assert inner(f, 2j * g) == pytest.approx((2j).conjugate() * inner(f, g))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            inner(Kernel.zeros(1, 0, 2), Kernel.zeros(0, 1, 2))


class TestInvariantBattery:
    def test_full_battery_at_spec_scale(self):
        from complexchaos.suites import kernel_invariants_report

        report = kernel_invariants_report(seed=9, trials=40, max_total=6, max_cells=4)
        assert report.passed, report.residual


class TestIndicatorConversion:
    def test_scaling_by_sqrt_masses(self):
        measure = DiscreteMeasure([4.0, 0.25])
        arr = np.zeros((2, 2), dtype=complex)
        arr[0, 1] = 1.0
        k = indicator_to_orthonormal(measure, 1, 1, arr)
        # sqrt(4) * sqrt(0.25) = 1
        assert k.coeffs[0, 1] == pytest.approx(1.0)
        arr2 = np.zeros((2, 2), dtype=complex)
        arr2[0, 0] = 1.0
        k2 = indicator_to_orthonormal(measure, 2, 0, arr2)
        assert k2.coeffs[0, 0] == pytest.approx(4.0)

    def test_scalar_passthrough(self):
        measure = DiscreteMeasure([3.0])
        k = indicator_to_orthonormal(measure, 0, 0, 5.0)
        assert complex(k.coeffs) == pytest.approx(5.0)
