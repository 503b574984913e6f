import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import pack, threshold, union_instance
from curcluster.cur import IndexSelection, cur_factorize
from curcluster.linalg import nuclear_norm, pinv
from curcluster.simgen import (
    BLOCK_BYTES,
    SimilarityMatrix,
    coefficient_matrix,
    elementwise_power,
    enforce_diagonal,
    fold,
    gram_similarity,
    median_aggregate,
    normalize_columns,
    block_rows,
    sim_baseline,
    similarity_noise_free,
    threshold_volumetric,
    _LEAF,
    _blocks,
    _middle,
    _network,
    _row_length,
    _tile_width,
)

# two independent 1-dim subspaces, two generic points each
W_TWO_LINES = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 3.0]])
Y_TWO_LINES = np.array(
    [
        [0.2, 0.4, 0.0, 0.0],
        [0.4, 0.8, 0.0, 0.0],
        [0.0, 0.0, 0.1, 0.3],
        [0.0, 0.0, 0.3, 0.9],
    ]
)


def full_factors(w):
    m, n = w.shape
    sel = IndexSelection(row_indices=np.arange(m), col_indices=np.arange(n))
    return cur_factorize(w, sel)


class TestCoefficientMatrix:
    def test_full_selection_is_wdagger_w(self):
        y = coefficient_matrix(full_factors(W_TWO_LINES))
        np.testing.assert_allclose(y, pinv(W_TWO_LINES) @ W_TWO_LINES, atol=1e-12)

    def test_two_line_example(self):
        y = coefficient_matrix(full_factors(W_TWO_LINES))
        np.testing.assert_allclose(y, Y_TWO_LINES, atol=1e-12)

    def test_shape_contract(self, rng):
        a = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 10))
        # 3 generic rows and 4 columns: Y is (selected columns) x n
        sel = IndexSelection(row_indices=np.arange(3), col_indices=np.arange(4))
        y = coefficient_matrix(cur_factorize(a, sel))
        assert y.shape == (4, 10)

    def test_cy_reconstructs(self, rng):
        a = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 7))
        f = full_factors(a)
        y = coefficient_matrix(f)
        assert np.linalg.norm(f.c @ y - a) <= 1e-8 * np.linalg.norm(a)


class TestGramSimilarity:
    def test_two_line_binary(self):
        sim = gram_similarity(Y_TWO_LINES, "binary")
        expected = np.array(
            [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], dtype=float
        )
        np.testing.assert_array_equal(sim.entries, expected)

    def test_single_column(self):
        sim = gram_similarity(np.array([[3.0], [4.0]]), "absolute")
        np.testing.assert_allclose(sim.entries, [[25.0]])

    def test_orthogonal_columns_binary(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        sim = gram_similarity(q, "binary")
        np.testing.assert_array_equal(sim.entries, np.eye(4))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            gram_similarity(Y_TWO_LINES, "signed")


class TestSimilarityNoiseFree:
    def test_two_line_block_pattern(self):
        sim = similarity_noise_free(Y_TWO_LINES, 1, "absolute")
        pattern = sim.entries > 1e-9
        expected = np.array(
            [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], dtype=bool
        )
        np.testing.assert_array_equal(pattern, expected)

    def test_single_subspace_power_fills_in(self, rng):
        # dimension-3 subspace: Q^3 must be strictly positive for generic data
        from curcluster import random_union_model, sample_instance

        model = random_union_model(10, (3,), 5)
        inst = sample_instance(model, (8,), 0.0, 6)
        y = pinv(inst.data) @ inst.data
        sim = similarity_noise_free(y, 3, "absolute")
        assert np.all(sim.entries > 1e-9 * sim.entries.max())

    def test_scalar(self):
        sim = similarity_noise_free(np.array([[2.0]]), 1, "absolute")
        assert sim.entries[0, 0] > 0

    @pytest.mark.parametrize("d_max", [1, 2, 3, 4, 5, 7, 8, 12])
    def test_binary_power_is_exactly_d_max(self, d_max):
        # an upper bidiagonal Y has a tridiagonal Gram pattern, a path graph
        # with self-loops, whose d-th power reaches exactly |i - j| <= d
        n = 16
        y = np.eye(n) + np.eye(n, k=1)
        sim = similarity_noise_free(y, d_max, "binary")
        i, j = np.indices((n, n))
        np.testing.assert_array_equal(sim.entries, (abs(i - j) <= d_max).astype(float))

    def test_absolute_overflow_names_d_max(self):
        # Y is finite; only the float power (Y.T Y)^5000 of the absolute kind overflows
        from curcluster import random_union_model, sample_instance

        model = random_union_model(300, (4, 4, 4), 0)
        w = sample_instance(model, (100, 100, 100), 0.0, 1).data
        y = pinv(w) @ w
        # no RuntimeWarning escapes: the suite turns one into an error
        with pytest.raises(ValueError, match="overflows float64 at d_max=5000.*binary kind"):
            similarity_noise_free(y, 5000, "absolute")

    def test_binary_pattern_matches_float_power(self, rng):
        y = rng.standard_normal((6, 20)) * (rng.random((6, 20)) < 0.2)
        for d_max in (1, 2, 3, 6):
            q = gram_similarity(y, "binary").entries
            expected = np.linalg.matrix_power(q, d_max) > 0
            sim = similarity_noise_free(y, d_max, "binary")
            np.testing.assert_array_equal(sim.entries, expected.astype(float))


class TestThresholdVolumetric:
    def test_single_subspace_unchanged(self, rng):
        y = rng.standard_normal((3, 5))
        np.testing.assert_array_equal(threshold(y, 1), y.astype(np.float32))

    def test_two_by_two_keeps_top_half(self):
        y = np.array([[4.0, -3.0], [2.0, 1.0]])
        np.testing.assert_array_equal(threshold(y, 2), [[4.0, -3.0], [0.0, 0.0]])

    def test_sparse_fixed_point(self):
        y = np.array([[5.0, 0.0], [0.0, 3.0]])  # already half-sparse
        np.testing.assert_array_equal(threshold(y, 2), y)

    def test_all_equal_keeps_every_entry(self):
        # ties at the cut are all kept: the kept set depends on values, not on position
        y = np.array([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(threshold(y, 2), y)

    def test_dropped_entries_are_positive_zero(self, rng):
        y = -np.abs(rng.standard_normal((30, 40)))  # every entry negative
        out = threshold(y, 3)
        dropped = out == 0.0
        assert np.count_nonzero(dropped) == y.size // 3
        assert not np.signbit(out[dropped]).any()

    def test_keeps_two_thirds_exactly_at_three_subspaces(self, rng):
        # (1 - 1/3) * kn rounds up past the exact count in floating point when 3 divides kn
        magnitudes = rng.permutation(np.arange(1.0, 22_501.0)).reshape(150, 150)  # no ties
        y = magnitudes * rng.choice([-1.0, 1.0], size=(150, 150))
        assert np.count_nonzero(threshold(y, 3)) == 15_000

    @pytest.mark.parametrize("seed", range(20))
    def test_symmetric_y_gives_symmetric_f(self, seed):
        # a mirrored pair of Y has one value, so the threshold keeps both entries or neither
        vt = np.random.default_rng(300 + seed).standard_normal((4, 40))
        y = vt.T @ vt
        assert np.array_equal(y, y.T)
        f = threshold(y, 3)
        assert np.array_equal(f, f.T)

    @pytest.mark.parametrize("m", [1, 3])
    def test_writes_into_scratch(self, rng, m):
        # F is float32 in the first half of the caller's Y
        y = rng.standard_normal((12, 40))
        workspace = y.copy()
        out = threshold_volumetric(workspace, m)
        assert out.dtype == np.float32 and out.shape == y.shape
        assert out.ctypes.data == workspace.ctypes.data
        np.testing.assert_array_equal(out, float32_cut_threshold(y, m))

    def test_ties_allocate_no_k_by_n_array(self):
        # a repeated cut value; F is masked one block of rows at a time by an int32 mask made in
        # |F|'s scratch, F's rows go over rows of Y already converted and |F| over Y's spent
        # second half, so the temporaries are one row and a few scalars, none of them k x n
        for shape in [(300, 300), (1200, 300), (288, 1200)]:
            y = np.round(np.random.default_rng(3).standard_normal(shape), 1)
            workspace = y.copy()
            tracemalloc.start()
            try:
                out = threshold_volumetric(workspace, 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < y.size, f"{shape}: peak {peak / y.size:.2f} bool k x n arrays"
            assert peak < BLOCK_BYTES, f"{shape}: peak {peak / BLOCK_BYTES:.2f} blocks"
            assert peak < BLOCK_BYTES / 16, f"{shape}: peak {peak / BLOCK_BYTES:.3f} blocks"
            np.testing.assert_array_equal(out, float32_cut_threshold(y, 3))


def float32_cut_threshold(y, m_subspaces):
    """Reference volumetric threshold: F = y in float32, kept where |F| >= a full sort's cut.

    The cut is the sorted |F| with floor(kn / M) entries below it; dropped entries are +0.0.
    """
    f = y.astype(np.float32)
    if m_subspaces == 1:
        return f
    mag = np.abs(f)
    cut = np.sort(mag, axis=None)[f.size // m_subspaces]
    return np.where(mag >= cut, f, np.float32(0.0))


class TestThresholdMatchesStableSort:
    """The partition threshold gives the full-sort reference's F, sign bits included.

    Each case runs in a fresh workspace and again in the same workspace, left dirty by a
    threshold of other values, as the trial loop reuses it.
    """

    @staticmethod
    def check(y, m):
        ref = float32_cut_threshold(y, m).view(np.uint32)
        workspace = np.empty(y.shape)
        for other in (None, y[::-1, ::-1] * 3.0):
            if other is not None:
                np.copyto(workspace, other)
                threshold_volumetric(workspace, m)
            np.copyto(workspace, y)
            out = threshold_volumetric(workspace, m)
            assert out.shape == y.shape
            np.testing.assert_array_equal(out.view(np.uint32), ref)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("seed", range(6))
    def test_random(self, seed, m):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((int(rng.integers(1, 20)), int(rng.integers(1, 80))))
        self.check(y, m)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    @pytest.mark.parametrize("seed", range(6))
    def test_tie_heavy(self, seed, m):
        rng = np.random.default_rng(100 + seed)
        y = np.round(rng.standard_normal((12, 50)), 1)  # also -0.0 and +/- pairs
        self.check(y, m)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    @pytest.mark.parametrize("y", [np.full((4, 7), -0.3), np.zeros((5, 5)), np.array([[2.5]])],
                             ids=["all-equal", "all-zero", "one-by-one"])
    def test_degenerate(self, y, m):
        self.check(y, m)

    @pytest.mark.parametrize("m", [2, 3, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_ties_across_row_blocks(self, seed, m):
        # the ties at the cut can run on past the first block of rows, or start after it
        rng = np.random.default_rng(200 + seed)
        rows = block_rows(9)
        y = np.round(rng.standard_normal((2 * rows + 5, 9)), int(rng.integers(0, 2)))
        self.check(y, m)


@st.composite
def tie_heavy_or_degenerate(draw):
    """Y of the threshold's tie-heavy and degenerate inputs, and M.

    Gaussians rounded to 0 or 1 decimals (ties, -0.0 and +/- pairs), all-equal entries, all
    zeros of either sign, and entries at float32's subnormal and largest scales.
    """
    k, n = draw(st.integers(1, 30)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["rounded", "all-equal", "zeros", "extreme"]))
    if kind == "rounded":
        y = np.round(rng.standard_normal((k, n)), draw(st.integers(0, 1)))
    elif kind == "all-equal":
        y = np.full((k, n), draw(st.sampled_from([-0.3, 2.5, 1e-40, -3e38])))
    elif kind == "zeros":
        y = np.where(rng.random((k, n)) < 0.5, -0.0, 0.0)
    else:
        y = rng.choice([0.0, -0.0, 1e-45, -1e-40, 1e-38, 3e38, -3.4e38], size=(k, n))
    return y, draw(st.sampled_from([2, 3, 5, 8]))


class TestThresholdCutOnBits:
    """The cut from the int32 partition of |F|'s bits is the float partition's, bit for bit."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(tie_heavy_or_degenerate())
    def test_cut_and_kept_set_match_float_partition(self, case):
        y, m = case
        f = y.astype(np.float32)
        mag = np.abs(f).reshape(-1)
        drop = mag.size // m
        if drop:
            cut = np.partition(mag, drop)[drop]
            on_bits = mag.copy()
            on_bits.view(np.int32).partition(drop)
            assert on_bits[drop].view(np.uint32) == cut.view(np.uint32)
        else:  # fewer entries than M: nothing is dropped
            cut = mag.min()
        kept = np.where(np.abs(f) >= cut, f, np.float32(0.0))
        np.testing.assert_array_equal(threshold(y, m).view(np.uint32), kept.view(np.uint32))


@st.composite
def near_symmetric(draw):
    """Symmetric positive n x n matrix with one entry moved by about the check's tolerance.

    The entry sits on a block edge, in the last partial block or anywhere; it moves by a
    multiple of atol + rtol * |mirror|, the bound np.allclose applies to it.
    """
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    a = rng.random((n, n))
    e = (1.0 + a + a.T) * 10.0 ** draw(st.sampled_from([-14, -9, 0, 6]))
    edges = sorted({b + d for b in range(0, n + 1, block_rows(n)) for d in (-1, 0)} & set(range(n)))
    index = st.one_of(st.sampled_from(edges), st.integers(max(0, n - 20), n - 1),
                      st.integers(0, n - 1))
    i, j = draw(index), draw(index)
    step = (1e-12 + 1e-5 * abs(e[j, i])) * draw(st.sampled_from([0.5, 0.999999, 1.0, 1.000001, 2.0]))
    down = draw(st.booleans()) and e[i, j] >= step  # entries stay nonnegative
    e[i, j] += -step if down else step
    return e


class TestSymmetryCheck:
    """The blocked check accepts and rejects exactly where np.allclose(e, e.T, atol=1e-12) does."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(near_symmetric())
    def test_matches_allclose(self, e):
        if np.allclose(e, e.T, atol=1e-12):
            assert SimilarityMatrix(entries=e).entries is e
        else:
            with pytest.raises(ValueError, match="must be symmetric"):
                SimilarityMatrix(entries=e)

    @pytest.mark.parametrize("asymmetry, accepted", [(1e-13, True), (1e-9, False)])
    def test_tolerance_on_a_matrix_not_bit_symmetric(self, rng, asymmetry, accepted):
        # where the mirror is 0 the tolerance is atol = 1e-12; the entry is in a later block
        a = rng.random((200, 200))
        e = a + a.T
        e[3, 150], e[150, 3] = 0.0, asymmetry
        if accepted:
            assert SimilarityMatrix(entries=e).entries is e
        else:
            with pytest.raises(ValueError, match="must be symmetric"):
                SimilarityMatrix(entries=e)

    def test_exactly_symmetric_peak_is_under_half_a_block(self, rng):
        # a bit-symmetric block is accepted by np.array_equal, whose temporaries are a block's
        # bools and numpy's buffer for the transposed view; np.allclose made three block-sized
        # float temporaries, 2.07 blocks here
        a = rng.random((150, 150))
        e = a + a.T
        tracemalloc.start()
        try:
            SimilarityMatrix(entries=e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * BLOCK_BYTES, f"peak {peak / BLOCK_BYTES:.2f} blocks"

    def test_peak_below_half_a_matrix(self, rng):
        n = 1200
        a = rng.random((n, n))
        e = a + a.T
        del a
        tracemalloc.start()
        try:
            SimilarityMatrix(entries=e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * e.nbytes, f"peak {peak / e.nbytes:.2f} n x n arrays"

    @pytest.mark.parametrize("n", [150, 300, 1200])
    def test_peak_under_a_fixed_cap(self, rng, n):
        # the symmetry check takes blocks of BLOCK_BYTES (np.allclose makes three block-sized
        # temporaries) and the sign and finiteness checks read extremes, so no temporary grows
        # with n: 2.1, 3.0 and 3.0 blocks here, where 128-row blocks and n x n sign and
        # finiteness masks peaked at 1.8, 2.7 and 10.2
        a = rng.random((n, n))
        e = a + a.T
        del a
        tracemalloc.start()
        try:
            SimilarityMatrix(entries=e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * BLOCK_BYTES, f"n = {n}: peak {peak / BLOCK_BYTES:.2f} blocks"


class TestMedianAggregate:
    def test_single_matrix_abs(self):
        sim = median_aggregate(pack([[[1.0, -2.0], [-2.0, 1.0]]]), 2)
        np.testing.assert_array_equal(sim.entries, [[1.0, 2.0], [2.0, 1.0]])

    def test_outlier_robust(self):
        mats = [np.full((2, 2), v) for v in (1.0, 5.0, 100.0)]
        sim = median_aggregate(pack(mats), 2)
        np.testing.assert_array_equal(sim.entries, np.full((2, 2), 5.0))

    def test_matches_naive_median(self, rng):
        mats = []
        for _ in range(25):
            a = rng.standard_normal((6, 6))
            mats.append(a + a.T)
        sim = median_aggregate(pack(mats), 6)
        for i in range(6):
            for j in range(6):
                vals = sorted(m[i, j] for m in mats)
                assert sim.entries[i, j] == pytest.approx(abs(vals[12]))

    def test_packed_matches_full(self, rng):
        mats = np.array([a + a.T for a in rng.standard_normal((8, 5, 5))])
        full = np.abs(np.median(mats, axis=0))
        np.testing.assert_array_equal(median_aggregate(pack(mats), 5).entries, full)


class TestFold:
    """The walk's blocks hold each upper-triangle entry once, and the median unfolds them."""

    # one tile: up to and around one and two leaves; several tiles, as even as n allows
    @pytest.mark.parametrize("n", [*range(1, 8), *range(31, 35), *range(64, 67), 129, 150, 151,
                                   1200])
    def test_each_entry_once(self, n):
        counts = np.zeros((n, n), dtype=int)
        index = np.arange(n)
        for rows, cols, blocks in _blocks(n):
            for rs, cs in blocks:
                counts[rows, cols][rs, cs] += 1
                top, left = index[rows][rs], index[cols][cs]
                if top[-1] > left[0]:  # entries below the diagonal: only a small diagonal block
                    np.testing.assert_array_equal(top, left)
                    assert len(top) <= _LEAF
        np.testing.assert_array_equal(np.triu(counts), np.triu(np.ones((n, n), dtype=int)))
        assert counts.max() == 1
        assert _row_length(n) == counts.sum() <= n * (n + 1) / 2 + n * (_LEAF - 1) / 2

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [*range(1, 8), 150, 151])
    def test_round_trip(self, rng, n, dtype):
        a = rng.standard_normal((n, n))
        g = (a + a.T).astype(dtype)
        row = np.empty((1, _row_length(n)), dtype=dtype)
        fold(g, row[0])
        entries = median_aggregate(row, n).entries
        assert entries.dtype == np.float64
        np.testing.assert_array_equal(entries, np.abs(g).astype(np.float64))


TRIAL_COUNTS = {
    "k1": st.just(1),
    "k2": st.just(2),
    "odd": st.integers(1, 29).map(lambda h: 2 * h + 1),
    "even": st.integers(2, 30).map(lambda h: 2 * h),
}


@st.composite
def symmetric_stacks(draw, counts, dtype=np.float64):
    """k symmetric n x n matrices, n <= 6, at a scale from 1e-300 to 1e300 (float32: 1e±30).

    Half of them are rounded to integers first: many ties, and -0.0 wherever a
    small negative rounds to zero.
    """
    k, n = draw(counts), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    mats = rng.standard_normal((k, n, n)) * 2.0
    if draw(st.booleans()):
        mats = np.round(mats)
    limit = 300 if dtype == np.float64 else 30
    return ((mats + mats.transpose(0, 2, 1)) * 10.0 ** draw(st.integers(-limit, limit))
            ).astype(dtype)


class TestMedianMatchesNumpy:
    """The min/max network and the sort give np.median's value bit for bit, on a finite stack."""

    @pytest.mark.parametrize("counts", TRIAL_COUNTS.values(), ids=TRIAL_COUNTS.keys())
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bit_for_bit(self, counts, data):
        mats = data.draw(symmetric_stacks(counts))
        stack = pack(mats)
        expected = np.abs(np.median(stack, axis=0))
        got = pack([median_aggregate(stack, mats.shape[1]).entries])[0]
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("counts", [TRIAL_COUNTS["odd"], TRIAL_COUNTS["even"]],
                             ids=["odd", "even"])
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_float32_stack_bit_for_bit(self, counts, data):
        # the trial loop's stack: np.median of the float32 stack, widened exactly to float64
        mats = data.draw(symmetric_stacks(counts, np.float32))
        stack = pack(mats).astype(np.float32)
        expected = np.abs(np.median(stack, axis=0)).astype(np.float64)
        entries = median_aggregate(stack, mats.shape[1]).entries
        assert entries.dtype == np.float64
        got = pack([entries])[0]
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_many_trials(self, rng):
        # 400 trials, far past the network's 32: the lower middle is the sorted row k // 2 - 1
        stack = pack([a + a.T for a in rng.standard_normal((400, 20, 20))])
        expected = np.abs(np.median(stack, axis=0))
        got = pack([median_aggregate(stack, 20).entries])[0]
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    # past 32 trials the median sorts the stack in place, and a sorted stack is a partition of
    # it; the min/max network leaves no partition behind
    @pytest.mark.parametrize("k", [33, 34, 49, 50])
    def test_partitions_the_stack_in_place(self, rng, k):
        stack = pack([a + a.T for a in rng.standard_normal((k, 5, 5))])
        column_sorted = np.sort(stack, axis=0)
        median = pack([median_aggregate(stack, 5).entries])[0]
        # the median is formed in row k // 2; the rows around it hold the rest, sorted, so also
        # partitioned
        np.testing.assert_array_equal(stack[k // 2], median)
        rest = np.delete(stack, k // 2, axis=0)
        np.testing.assert_array_equal(np.sort(rest, axis=0),
                                      np.delete(column_sorted, k // 2, axis=0))
        assert np.all(stack[: k // 2] <= column_sorted[k // 2])
        assert np.all(stack[k // 2 + 1:] >= column_sorted[k // 2])

    @pytest.mark.parametrize("counts", TRIAL_COUNTS.values(), ids=TRIAL_COUNTS.keys())
    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(data=st.data())
    def test_exactly_symmetric_and_nonnegative(self, counts, data):
        mats = data.draw(symmetric_stacks(counts))
        assert_symmetric_nonnegative(median_aggregate(pack(mats), mats.shape[1]).entries)


def assert_symmetric_nonnegative(entries):
    """What `median_aggregate` promises in place of `SimilarityMatrix`'s checks, bit for bit."""
    np.testing.assert_array_equal(entries.view(np.uint64), entries.T.view(np.uint64))
    assert not np.signbit(entries).any()


def run_network(x):
    """`_network(len(x))` applied to the rows of x, writing only the outputs it keeps."""
    x = x.copy()
    for i, j, lo, hi in _network(len(x)):
        low, high = np.minimum(x[i], x[j]), np.maximum(x[i], x[j])
        if lo:
            x[i] = low
        if hi:
            x[j] = high
    return x


class TestNetwork:
    """The pruned Batcher network leaves the middle order statistics in the middle rows."""

    @pytest.mark.parametrize("t", range(1, 17))
    def test_every_zero_one_input(self, t):
        # the 0-1 principle (Knuth, TAOCP vol. 3, 5.3.4): a comparator network that selects on
        # every 0/1 input selects on every input
        x = (np.arange(2**t) >> np.arange(t)[:, None]) & 1
        got, ones = run_network(x), x.sum(axis=0)
        for row in {(t - 1) // 2, t // 2}:
            np.testing.assert_array_equal(got[row], ones > t - 1 - row)

    @pytest.mark.parametrize("t", range(1, 65))
    def test_random_permutations(self, rng, t):
        x = rng.random((t, 200)).argsort(axis=0)
        got = run_network(x)
        for row in {(t - 1) // 2, t // 2}:
            np.testing.assert_array_equal(got[row], row)

    @pytest.mark.parametrize("t, comparators", [(1, 0), (2, 1), (25, 113), (32, 157), (33, 198),
                                                (50, 330)])
    def test_size_and_the_kernel_boundary(self, t, comparators):
        # `_middle` runs the network where it has at most 5t comparators: exactly t <= 32
        assert len(_network(t)) == comparators
        assert (comparators <= 5 * t) == (t <= 32)
        assert all(i < j < t for i, j, _, _ in _network(t))


class TestSortedMiddle:
    """Past 32 trials `_middle` sorts the slab in place along the trial axis."""

    @pytest.mark.parametrize("t", [33, 50, 64])
    def test_peak_below_a_sixteenth_of_the_slab(self, rng, t):
        # numpy sorts the strided trial axis lane by lane through a buffer of t entries, with no
        # copy of the slab
        slab = rng.standard_normal((t, 14_400)).astype(np.float32)
        tracemalloc.start()
        try:
            _middle(slab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < slab.nbytes / 16, f"peak {peak / slab.nbytes:.3f} slabs"

    @pytest.mark.parametrize("t", [33, 34, 50, 64, 101])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_for_bit_with_numpy(self, rng, t, dtype):
        # integers from -3 to 3 repeat in every lane, and their zeros carry either sign
        slab = rng.standard_normal((t, 3_000)) * 2.0
        slab[:, ::2] = np.round(slab[:, ::2])
        slab[slab == 0] = rng.choice([0.0, -0.0], size=int((slab == 0).sum()))
        slab = slab.astype(dtype)
        expected = np.abs(np.median(slab, axis=0))
        got = _middle(slab)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got.view(np.uint8), expected.view(np.uint8))

    def test_builds_no_network(self, rng):
        # `_network` is cached for the process: at 2,000 trials it takes about a second and keeps
        # 6.5 MiB (48,952 comparators) that the sort never reads
        before = _network.cache_info()
        _middle(rng.standard_normal((2_000, 4)))
        after = _network.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


@st.composite
def trial_factors(draw, n=st.integers(129, 400).filter(lambda n: n % _tile_width(n))):
    """t float32 factors F (k x n): by default n past one tile and not a multiple of the tile
    width, some columns zero with either sign, and half of them rounded to integers (ties, and
    -0.0 in the Gram products wherever a zero column meets a negative one).  t = 50 with k <= 14
    is rcur's shape (50 trials of at most r_max = 14 rows); t = 32 and 33 are the last count the
    min/max network takes and the first that the sort takes."""
    t = draw(st.sampled_from([1, 2, 3, 24, 25, 32, 33, 50]))
    n = draw(n)
    k = draw(st.integers(1, 14 if t == 50 else 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    factors = rng.standard_normal((t, k, n)) * 2.0
    if draw(st.booleans()):
        factors = np.round(factors)
    zero = draw(st.lists(st.integers(0, n - 1), max_size=8))
    factors[:, :, zero] = rng.choice([0.0, -0.0], size=(t, k, len(zero)))
    return factors.astype(np.float32)


class TestFactorMedian:
    """The median from stored factors, one tile of Gram columns at a time, is the folded stack's."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(factors=trial_factors())
    def test_bit_for_bit_with_the_folded_stack(self, factors):
        self.check(factors)

    # one diagonal tile n wide: below, at and just above the width taken whole, odd and even, and
    # tiles that split once (64, 66) or twice (65: 32 and 33, then 16 and 17)
    @pytest.mark.parametrize("n", [_LEAF - 2, _LEAF - 1, _LEAF, _LEAF + 1, _LEAF + 2,
                                   2 * _LEAF, 2 * _LEAF + 1, 2 * _LEAF + 2])
    @settings(derandomize=True, database=None, max_examples=15, deadline=None)
    @given(data=st.data())
    def test_bit_for_bit_around_the_leaf(self, n, data):
        self.check(data.draw(trial_factors(n=st.just(n))))

    @staticmethod
    def check(factors):
        t, _, n = factors.shape
        stack = np.empty((t, _row_length(n)), dtype=np.float32)
        gram = np.empty((n, n), dtype=np.float32)
        for f, row in zip(factors, stack):
            fold(np.matmul(f.T, f, out=gram), row)
        expected = median_aggregate(stack, n).entries
        before = factors.copy()
        got = median_aggregate(factors).entries
        assert got.dtype == np.float64
        assert_symmetric_nonnegative(got)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
        np.testing.assert_array_equal(factors.view(np.uint32), before.view(np.uint32))

    @pytest.mark.parametrize("n, width", [(1, 1), (128, 128), (129, 65), (1200, 120), (1201, 121)])
    def test_tile_width(self, n, width):
        assert _tile_width(n) == width


class TestEnforceDiagonal:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(enforce_diagonal(np.zeros((3, 3))), np.eye(3))

    def test_preserves_off_diagonal(self):
        m = np.full((2, 2), 0.5)
        out = enforce_diagonal(m)
        np.testing.assert_array_equal(out, [[1.0, 0.5], [0.5, 1.0]])

    def test_idempotent(self, rng):
        a = rng.random((4, 4))
        once = enforce_diagonal(a)
        np.testing.assert_array_equal(enforce_diagonal(once), once)

    def test_in_place(self, rng):
        a = rng.random((4, 4))
        expected = a.copy()
        np.fill_diagonal(expected, 1.0)
        assert enforce_diagonal(a) is a
        np.testing.assert_array_equal(a, expected)


class TestNormalizeColumns:
    def test_three_four_five(self):
        np.testing.assert_allclose(
            normalize_columns(np.array([[3.0], [4.0]])), [[0.6], [0.8]]
        )

    def test_unit_columns_unchanged(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((5, 3)))
        np.testing.assert_allclose(normalize_columns(q), q, atol=1e-12)

    def test_zero_column_no_nan(self):
        out = normalize_columns(np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out[:, 0], [0.0, 0.0])


class TestElementwisePower:
    def test_alpha_one_identity(self):
        sim = SimilarityMatrix(entries=np.array([[0.5, 0.2], [0.2, 0.5]]))
        np.testing.assert_array_equal(elementwise_power(sim, 1.0).entries, sim.entries)

    def test_binary_invariant(self):
        sim = SimilarityMatrix(entries=np.eye(3))
        np.testing.assert_array_equal(elementwise_power(sim, 3.7).entries, np.eye(3))

    def test_squares(self):
        sim = SimilarityMatrix(entries=np.full((2, 2), 0.5))
        np.testing.assert_allclose(elementwise_power(sim, 2.0).entries, np.full((2, 2), 0.25))

    @pytest.mark.parametrize("alpha", [2, 2.0, 0.5, 1.7, 3.0, 1.0])
    def test_in_place_matches_power_bit_for_bit(self, rng, alpha):
        a = rng.random((7, 7))
        sim = SimilarityMatrix(entries=a + a.T)
        expected = sim.entries**alpha
        entries = sim.entries
        assert elementwise_power(sim, alpha) is sim
        assert sim.entries is entries
        np.testing.assert_array_equal(sim.entries.view(np.uint64), expected.view(np.uint64))

    def test_overflow_names_alpha(self):
        # a median entry can exceed 1 by round-off; the old out-of-place power was validated
        sim = SimilarityMatrix(entries=np.full((2, 2), 1.0 + 2.0**-52))
        # no RuntimeWarning escapes: the suite turns one into an error
        with pytest.raises(ValueError, match="alpha=1e\\+300 overflows float64"):
            elementwise_power(sim, 1e300)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_alpha(self, alpha):
        sim = SimilarityMatrix(entries=np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            elementwise_power(sim, alpha)


class TestSimBaseline:
    def test_orthogonal_columns(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((8, 4)))
        sim = sim_baseline(q * [2.0, 3.0, 4.0, 5.0], 4)
        np.testing.assert_allclose(sim.entries, np.eye(4), atol=1e-10)

    def test_equals_wdagger_w(self):
        sim = sim_baseline(W_TWO_LINES, 2)
        np.testing.assert_allclose(
            sim.entries, np.abs(pinv(W_TWO_LINES) @ W_TWO_LINES), atol=1e-8
        )

    def test_rank_one_power_iteration(self, rng):
        a = np.outer(rng.standard_normal(6), rng.standard_normal(5))
        # power iteration on A^T A gives the top right singular vector
        v = rng.standard_normal(5)
        for _ in range(200):
            v = a.T @ (a @ v)
            v /= np.linalg.norm(v)
        sim = sim_baseline(a, 1)
        np.testing.assert_allclose(sim.entries, np.abs(np.outer(v, v)), atol=1e-10)


class TestBlockStructure:
    @pytest.mark.parametrize("seed", range(20))
    def test_block_diagonality(self, seed):
        inst = union_instance(seed)
        y = coefficient_matrix(full_factors(inst.data))
        labels = inst.truth.labels
        off_block = y * (labels[:, None] != labels[None, :])
        assert np.linalg.norm(off_block) <= 1e-8 * np.linalg.norm(y)

    @pytest.mark.parametrize("seed", range(20))
    def test_exact_similarity_pattern(self, seed):
        inst = union_instance(seed)
        y = coefficient_matrix(full_factors(inst.data))
        d_max = max(inst.model.subspace_dims)
        sim = similarity_noise_free(y, d_max, "absolute")
        labels = inst.truth.labels
        pattern = sim.entries > 1e-9 * sim.entries.max()
        np.testing.assert_array_equal(pattern, labels[:, None] == labels[None, :])

    @pytest.mark.parametrize("seed", range(10))
    def test_row_selection_equivalences(self, seed):
        # R^+ R = W^+ W = V_r V_r^T for any rank-preserving row selection
        from curcluster.cur import cur_sample
        from curcluster.linalg import numerical_rank

        inst = union_instance(seed)
        w = inst.data
        r_rank = numerical_rank(w)
        f = cur_sample(w, r_rank, w.shape[1], seed=seed)
        rr = pinv(f.r) @ f.r
        ww = pinv(w) @ w
        assert np.linalg.norm(rr - ww) <= 1e-8
        assert np.linalg.norm(ww - sim_baseline_signed(w, r_rank)) <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_nuclear_norm_minimality(self, seed):
        rng = np.random.default_rng(seed)
        inst = union_instance(seed)
        w = inst.data
        from curcluster.linalg import numerical_rank, skinny_svd

        r_rank = numerical_rank(w)
        n = w.shape[1]
        vr = skinny_svd(w, r_rank).right
        base = vr @ vr.T
        assert nuclear_norm(base) == pytest.approx(r_rank, abs=1e-9)
        # orthocomplement perturbations stay feasible but cost more
        full_v = np.linalg.svd(w)[2].T
        vtilde = full_v[:, r_rank:]
        for _ in range(20):
            x = rng.standard_normal((n - r_rank, n))
            z = base + vtilde @ x
            assert np.linalg.norm(w @ z - w) <= 1e-8 * np.linalg.norm(w)
            assert nuclear_norm(z) > nuclear_norm(base)

    @pytest.mark.parametrize("seed", range(5))
    def test_dictionary_form_minimality(self, seed):
        rng = np.random.default_rng(seed)
        inst = union_instance(seed)
        w = inst.data
        from curcluster.linalg import numerical_rank

        r_rank = numerical_rank(w)
        # redundant column dictionary: r + 2 columns spanning the range
        for attempt in range(50):
            cols = np.sort(rng.choice(w.shape[1], size=min(r_rank + 2, w.shape[1]), replace=False))
            c = w[:, cols]
            if numerical_rank(c) == r_rank:
                break
        z0 = pinv(c) @ w
        null_basis = np.linalg.svd(c)[2].T[:, r_rank:]
        if null_basis.shape[1] == 0:
            pytest.skip("dictionary has no null space")
        for _ in range(20):
            x = rng.standard_normal((null_basis.shape[1], w.shape[1]))
            z = z0 + null_basis @ x
            assert np.linalg.norm(c @ z - w) <= 1e-8 * np.linalg.norm(w)
            assert nuclear_norm(z0) <= nuclear_norm(z) + 1e-9


def sim_baseline_signed(w, r):
    from curcluster.linalg import skinny_svd

    vr = skinny_svd(w, r).right
    return vr @ vr.T
