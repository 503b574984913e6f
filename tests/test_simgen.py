import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import pack, union_instance
from curcluster.cur import IndexSelection, cur_factorize
from curcluster.linalg import nuclear_norm, pinv
from curcluster.simgen import (
    SYMMETRY_BLOCK,
    SimilarityMatrix,
    coefficient_matrix,
    elementwise_power,
    enforce_diagonal,
    gram_similarity,
    median_aggregate,
    normalize_columns,
    sim_baseline,
    similarity_noise_free,
    threshold_volumetric,
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
        with (pytest.warns(RuntimeWarning, match="overflow"),
              pytest.raises(ValueError, match="overflows float64 at d_max=5000.*binary kind")):
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
        np.testing.assert_array_equal(threshold_volumetric(y.copy(), 1), y)

    def test_two_by_two_keeps_top_half(self):
        y = np.array([[4.0, -3.0], [2.0, 1.0]])
        np.testing.assert_array_equal(
            threshold_volumetric(y, 2), [[4.0, -3.0], [0.0, 0.0]]
        )

    def test_sparse_fixed_point(self):
        y = np.array([[5.0, 0.0], [0.0, 3.0]])  # already half-sparse
        np.testing.assert_array_equal(threshold_volumetric(y.copy(), 2), y)

    def test_tie_break_row_major(self):
        y = np.array([[1.0, 1.0], [1.0, 1.0]])
        out = threshold_volumetric(y, 2)
        np.testing.assert_array_equal(out, [[1.0, 1.0], [0.0, 0.0]])

    def test_dropped_entries_are_positive_zero(self, rng):
        y = -np.abs(rng.standard_normal((30, 40)))  # every entry negative
        out = threshold_volumetric(y, 3)
        dropped = out == 0.0
        assert np.count_nonzero(dropped) == y.size - math.ceil((1 - 1 / 3) * y.size)
        assert not np.signbit(out[dropped]).any()

    @pytest.mark.parametrize("m", [1, 3])
    def test_in_place(self, rng, m):
        y = rng.standard_normal((12, 40))
        expected = stable_sort_threshold(y, m)
        out = threshold_volumetric(y, m)
        assert out is y
        np.testing.assert_array_equal(y, expected)


def stable_sort_threshold(y, m_subspaces):
    """Reference volumetric threshold: a full stable argsort of -|y|."""
    if m_subspaces == 1:
        return y.copy()
    total = y.size
    keep = math.ceil((1.0 - 1.0 / m_subspaces) * total)
    order = np.argsort(-np.abs(y).ravel(), kind="stable")
    mask = np.zeros(total, dtype=bool)
    mask[order[:keep]] = True
    out = y.copy().ravel()
    out[~mask] = 0.0
    return out.reshape(y.shape)


class TestThresholdMatchesStableSort:
    """The partition threshold gives the stable-argsort result, sign bits included."""

    @staticmethod
    def check(y, m):
        out, ref = threshold_volumetric(y.copy(), m), stable_sort_threshold(y, m)
        assert out.shape == ref.shape
        np.testing.assert_array_equal(out.view(np.uint64), ref.view(np.uint64))

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
    edges = sorted({b + d for b in range(0, n + 1, SYMMETRY_BLOCK) for d in (-1, 0)} & set(range(n)))
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


class TestMedianAggregate:
    def test_single_matrix_abs(self):
        sim = median_aggregate(pack([[[1.0, -2.0], [-2.0, 1.0]]]))
        np.testing.assert_array_equal(sim.entries, [[1.0, 2.0], [2.0, 1.0]])

    def test_outlier_robust(self):
        mats = [np.full((2, 2), v) for v in (1.0, 5.0, 100.0)]
        sim = median_aggregate(pack(mats))
        np.testing.assert_array_equal(sim.entries, np.full((2, 2), 5.0))

    def test_matches_naive_median(self, rng):
        mats = []
        for _ in range(25):
            a = rng.standard_normal((6, 6))
            mats.append(a + a.T)
        sim = median_aggregate(pack(mats))
        for i in range(6):
            for j in range(6):
                vals = sorted(m[i, j] for m in mats)
                assert sim.entries[i, j] == pytest.approx(abs(vals[12]))

    def test_packed_matches_full(self, rng):
        mats = np.array([a + a.T for a in rng.standard_normal((8, 5, 5))])
        full = np.abs(np.median(mats, axis=0))
        np.testing.assert_array_equal(median_aggregate(pack(mats)).entries, full)


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
    """One partition at k // 2 gives np.median's value bit for bit, on a finite stack."""

    @pytest.mark.parametrize("counts", TRIAL_COUNTS.values(), ids=TRIAL_COUNTS.keys())
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bit_for_bit(self, counts, data):
        mats = data.draw(symmetric_stacks(counts))
        stack = pack(mats)
        expected = np.abs(np.median(stack, axis=0))
        got = median_aggregate(stack).entries[np.triu_indices(mats.shape[1])]
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
        entries = median_aggregate(stack).entries
        assert entries.dtype == np.float64
        got = entries[np.triu_indices(mats.shape[1])]
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_many_trials(self, rng):
        # past a few dozen trials numpy's partition no longer leaves the lower middle at k // 2 - 1
        stack = pack([a + a.T for a in rng.standard_normal((400, 20, 20))])
        expected = np.abs(np.median(stack, axis=0))
        got = median_aggregate(stack).entries[np.triu_indices(20)]
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("k", [1, 2, 7, 8])
    def test_partitions_the_stack_in_place(self, rng, k):
        stack = pack([a + a.T for a in rng.standard_normal((k, 5, 5))])
        column_sorted = np.sort(stack, axis=0)
        median = median_aggregate(stack).entries[np.triu_indices(5)]
        # the median is formed in row k // 2; the rows around it hold a partition of the rest
        np.testing.assert_array_equal(stack[k // 2], median)
        rest = np.delete(stack, k // 2, axis=0)
        np.testing.assert_array_equal(np.sort(rest, axis=0),
                                      np.delete(column_sorted, k // 2, axis=0))
        assert np.all(stack[: k // 2] <= column_sorted[k // 2])
        assert np.all(stack[k // 2 + 1:] >= column_sorted[k // 2])


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
        with (pytest.warns(RuntimeWarning, match="overflow"),
              pytest.raises(ValueError, match="alpha=1e\\+300 overflows float64")):
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
