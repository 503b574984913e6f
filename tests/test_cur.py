import numpy as np
import pytest

from curcluster.cur import (
    IndexSelection,
    RankDeficientSelection,
    SelectionFailed,
    _required_rank,
    _sample,
    cur_factorize,
    cur_sample,
    select_uniform,
)
from curcluster.linalg import numerical_rank, pinv
from curcluster.simgen import coefficient_matrix


def planted(rng, m, n, rank):
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


class TestSelectUniform:
    def test_exhaustive(self):
        sel = select_uniform(3, 3, 3, 3, seed=0)
        np.testing.assert_array_equal(sel.row_indices, [0, 1, 2])
        np.testing.assert_array_equal(sel.col_indices, [0, 1, 2])

    def test_deterministic(self):
        a = select_uniform(50, 40, 5, 6, seed=123)
        b = select_uniform(50, 40, 5, 6, seed=123)
        np.testing.assert_array_equal(a.row_indices, b.row_indices)
        np.testing.assert_array_equal(a.col_indices, b.col_indices)

    def test_uniform_frequency(self):
        counts = np.zeros(100)
        draws = 10_000
        for i in range(draws):
            sel = select_uniform(100, 10, 8, 1, seed=i)
            counts[sel.row_indices] += 1
        freqs = counts / draws
        assert np.all(np.abs(freqs - 0.08) <= 0.01)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            select_uniform(3, 3, 4, 1, seed=0)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            IndexSelection(row_indices=np.array([0, 0]), col_indices=np.array([1]))


class TestCurFactorize:
    def test_identity_full_selection(self):
        sel = select_uniform(2, 2, 2, 2, seed=0)
        f = cur_factorize(np.eye(2), sel)
        np.testing.assert_allclose(f.c, np.eye(2))
        np.testing.assert_allclose(f.u, np.eye(2))
        np.testing.assert_allclose(f.r, np.eye(2))
        np.testing.assert_allclose(f.reconstruct(), np.eye(2), atol=1e-12)

    def test_rank_one_single_entry(self):
        a = np.outer([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0])
        sel = IndexSelection(row_indices=np.array([0]), col_indices=np.array([0]))
        f = cur_factorize(a, sel)
        np.testing.assert_allclose(f.c, a[:, :1])
        np.testing.assert_allclose(f.u, [[1.0]])
        np.testing.assert_allclose(f.r, a[:1, :])
        np.testing.assert_allclose(f.reconstruct(), a, atol=1e-12)

    def test_random_rank3(self, rng):
        a = planted(rng, 10, 12, 3)
        for seed in range(20):
            sel = select_uniform(10, 12, 5, 6, seed=seed)
            try:
                f = cur_factorize(a, sel)
            except RankDeficientSelection:
                continue
            resid = np.linalg.norm(a - f.reconstruct()) / np.linalg.norm(a)
            assert resid <= 1e-8
            break
        else:
            pytest.fail("no rank-sufficient selection in 20 seeds")

    def test_rank_deficient_selection(self):
        # block diagonal; a selection inside the first block misses rank
        a = np.zeros((4, 4))
        a[:2, :2] = np.ones((2, 2))
        a[2:, 2:] = 2 * np.ones((2, 2))
        sel = IndexSelection(row_indices=np.array([0, 1]), col_indices=np.array([0, 1]))
        with pytest.raises(RankDeficientSelection) as exc:
            cur_factorize(a, sel)
        assert exc.value.u_rank == 1
        assert exc.value.required_rank == 2

    def test_submatrix_consistency(self, rng):
        a = planted(rng, 9, 11, 4)
        sel = select_uniform(9, 11, 6, 7, seed=5)
        f = cur_factorize(a, sel)
        np.testing.assert_array_equal(f.c, a[:, sel.col_indices])
        np.testing.assert_array_equal(f.r, a[sel.row_indices, :])
        np.testing.assert_array_equal(f.u, a[np.ix_(sel.row_indices, sel.col_indices)])
        # U is C restricted to the selected rows and R restricted to the columns
        np.testing.assert_array_equal(f.u, f.c[sel.row_indices, :])
        np.testing.assert_array_equal(f.u, f.r[:, sel.col_indices])


class TestCurSample:
    def test_rank2_succeeds(self, rng):
        a = planted(rng, 8, 8, 2)
        f = cur_sample(a, 2, 2, seed=0, max_retries=100)
        assert numerical_rank(f.u) == 2
        # invertible U: pinv equals inverse
        np.testing.assert_allclose(pinv(f.u), np.linalg.inv(f.u), atol=1e-8)

    def test_full_matrix_single_attempt(self, rng):
        a = rng.standard_normal((5, 5))
        f = cur_sample(a, 5, 5, seed=0, max_retries=1)
        np.testing.assert_array_equal(f.c, a)

    def test_zero_matrix_fails(self):
        with pytest.raises(SelectionFailed):
            cur_sample(np.zeros((4, 4)), 2, 2, seed=0)

    def test_retries_exhausted_reports_attempts(self):
        # rank hides in one entry; tiny retry budget with adversarial seeds
        a = np.zeros((30, 30))
        a[29, 29] = 1.0
        a[0, 0] = 1.0
        with pytest.raises(SelectionFailed) as exc:
            cur_sample(a, 1, 1, seed=0, max_retries=2, target_rank=2)
        assert exc.value.attempts == 2

    def test_target_rank_caps_at_matrix_rank(self, rng):
        a = planted(rng, 10, 10, 3)
        f = cur_sample(a, 5, 10, seed=1, target_rank=5)
        assert numerical_rank(f.u) == 3


def hidden_rank(rng):
    """Rank 3 carried by the first 3 of 20 rows and columns, so most draws miss it."""
    a = np.zeros((20, 20))
    a[:3, :3] = rng.standard_normal((3, 3))
    return a


class TestSampler:
    """The one-SVD sampler behind cur_sample and the pipelines."""

    @pytest.mark.parametrize("seed", range(5))
    def test_same_selection_as_rank_check_loop(self, rng, seed):
        a = hidden_rank(rng)
        required = _required_rank(3, 12, 12, numerical_rank(a))
        # the draw a separate numerical_rank(U) per attempt would accept
        for attempt in range(100):
            expected = select_uniform(20, 20, 12, 12, seed + attempt)
            u = a[np.ix_(expected.row_indices, expected.col_indices)]
            if numerical_rank(u) >= required:
                break
        selection, _ = _sample(a, 12, 12, required, seed, max_retries=100)
        factors = cur_sample(a, 12, 12, seed=seed, target_rank=3)
        for got in (selection, factors.selection):
            np.testing.assert_array_equal(got.row_indices, expected.row_indices)
            np.testing.assert_array_equal(got.col_indices, expected.col_indices)

    @pytest.mark.parametrize("s, k", [(4, 20), (6, 9), (20, 20)])
    def test_y_is_coefficient_matrix(self, rng, s, k):
        a = planted(rng, 20, 20, 4) + 1e-3 * rng.standard_normal((20, 20))
        factors = cur_sample(a, s, k, seed=3, target_rank=4)
        _, y = _sample(a, s, k, _required_rank(4, s, k, numerical_rank(a)), 3, 100)
        np.testing.assert_array_equal(y, coefficient_matrix(factors))


class TestExactReconstructionProperty:
    @pytest.mark.parametrize("seed", range(30))
    def test_planted_rank(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(5, 51)), int(rng.integers(5, 51))
        rank = int(rng.integers(1, min(10, m, n) + 1))
        a = planted(rng, m, n, rank)
        s = int(rng.integers(rank, m + 1))
        k = int(rng.integers(rank, n + 1))
        f = cur_sample(a, s, k, seed=seed)
        resid = np.linalg.norm(a - f.reconstruct()) / np.linalg.norm(a)
        assert resid <= 1e-8
