import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curcluster.cur import (
    IndexSelection,
    RankDeficientSelection,
    SelectionFailed,
    _draw,
    _draws,
    _required,
    cur_factorize,
    cur_sample,
    select_uniform,
)
from curcluster.linalg import _pinv_from_svd, numerical_rank, pinv
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

    @pytest.mark.parametrize("m, n, s", [(8, 5, 3), (40, 30, 12), (300, 150, 8)])
    def test_all_columns_same_as_a_draw(self, m, n, s):
        # every column taken: the draw would be 0..n-1 sorted, and the rows come first
        for seed in range(5):
            sel = select_uniform(m, n, s, n, seed)
            rng = np.random.default_rng(seed)
            np.testing.assert_array_equal(sel.row_indices,
                                          np.sort(rng.choice(m, size=s, replace=False)))
            np.testing.assert_array_equal(sel.col_indices, np.arange(n))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            select_uniform(3, 3, 4, 1, seed=0)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            IndexSelection(row_indices=np.array([0, 0]), col_indices=np.array([1]))

    @pytest.mark.parametrize("rows, cols, message", [
        # each failed inside np.ix_ with numpy's "Cross index must be 1 dimensional"
        (np.array([[0, 1]]), np.array([0, 1]), "row index set must be one-dimensional, got ndim=2"),
        (np.array(1), np.array([0, 1]), "row index set must be one-dimensional, got ndim=0"),
        (np.array([0, 1]), np.array([[0], [1]]), "col index set must be one-dimensional"),
    ])
    def test_rejects_index_sets_not_one_dimensional(self, rows, cols, message):
        with pytest.raises(ValueError, match=message):
            cur_factorize(np.eye(3), IndexSelection(row_indices=rows, col_indices=cols))


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

    @pytest.mark.parametrize("rows, cols, message", [
        # -3 is row 0 again on 3 rows: it passed the duplicate check and came out as rank(U)=1
        ([0, -3], [0, 1], r"row index -3 is outside \[0, 3\)"),
        ([0, 7], [0, 1], r"row index 7 is outside \[0, 3\)"),  # was a bare IndexError
        ([0], [3], r"col index 3 is outside \[0, 3\)"),
    ])
    def test_rejects_indices_outside(self, rows, cols, message):
        sel = IndexSelection(row_indices=np.array(rows), col_indices=np.array(cols))
        with pytest.raises(ValueError, match=message):
            cur_factorize(np.eye(3), sel)

    @pytest.mark.parametrize("rows, cols, message", [
        # both were bare IndexErrors from inside numpy
        (np.array([0.5, 1.0]), np.array([0, 1, 2]), "row index set must be of integer type"),
        (np.array([True, False]), np.array([0, 1]), "row index set must be of integer type"),
        (np.array([0, 1]), np.array([1.0, 2.0]), "col index set must be of integer type"),
    ])
    def test_rejects_indices_not_integer(self, rows, cols, message):
        with pytest.raises(ValueError, match=message):
            cur_factorize(np.eye(3), IndexSelection(row_indices=rows, col_indices=cols))

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
    """The one-SVD draw generator behind cur_sample and the pipelines."""

    @pytest.mark.parametrize("seed", range(5))
    def test_same_selection_as_rank_check_loop(self, rng, monkeypatch, seed):
        a = hidden_rank(rng)
        # target 3 = rank(A): the first draw's U proves it when it has rank 3; target 4 > rank(A):
        # no U proves it, and A's SVD decides; either way the first attempt is drawn once
        for target_rank in (3, 4):
            required = min(target_rank, 12, 12, numerical_rank(a))
            # the draw a separate numerical_rank(U) per attempt would accept
            for attempt in range(100):
                expected = select_uniform(20, 20, 12, 12, seed + attempt)
                u = a[np.ix_(expected.row_indices, expected.col_indices)]
                if numerical_rank(u) >= required:
                    break
            draws = []
            with monkeypatch.context() as patch:
                patch.setattr("curcluster.cur._draw", lambda *args: draws.append(1) or _draw(*args))
                got_required, rows, cols, _ = next(_draws(a, target_rank, 12, 12, [seed], 100))
            assert got_required == required
            assert len(draws) == attempt + 1
            factors = cur_sample(a, 12, 12, seed=seed, target_rank=target_rank)
            for got in (IndexSelection(rows, cols), factors.selection):
                np.testing.assert_array_equal(got.row_indices, expected.row_indices)
                np.testing.assert_array_equal(got.col_indices, expected.col_indices)

    @pytest.mark.parametrize("s, k", [(4, 20), (6, 9), (20, 20)])
    def test_y_is_coefficient_matrix(self, rng, s, k):
        a = planted(rng, 20, 20, 4) + 1e-3 * rng.standard_normal((20, 20))
        factors = cur_sample(a, s, k, seed=3, target_rank=4)
        _, rows, _, svd = next(_draws(a, 4, s, k, [3], 100))
        y = _pinv_from_svd(*svd) @ a[rows]
        np.testing.assert_array_equal(y, coefficient_matrix(factors))

    @pytest.mark.parametrize("seed", range(5))
    def test_svd_is_cut_to_rank_of_u(self, rng, seed):
        a = hidden_rank(rng)  # every accepted 12 x 12 U has rank 3
        _, rows, cols, svd = next(_draws(a, 3, 12, 12, [seed], 100))
        u = a[np.ix_(rows, cols)]
        assert [part.shape for part in svd] == [(12, 3), (3,), (3, 12)]
        assert len(svd[1]) == numerical_rank(u)
        factors = cur_sample(a, 12, 12, seed=seed, target_rank=3)
        y = _pinv_from_svd(*svd) @ a[rows]
        np.testing.assert_array_equal(y, coefficient_matrix(factors))


@st.composite
def rank_instances(draw):
    """A planted-rank matrix at one of several scales, with s, k and a target drawn around it:
    ranks above, at and below min(target, s, k), more rows than the target, fewer columns than n,
    and scales at which the certificate's bound overflows or underflows."""
    m, n = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rank = draw(st.integers(1, min(m, n)))
    s = draw(st.integers(1, m))
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    target = draw(st.integers(1, min(m, n) + 2))
    scale = draw(st.sampled_from([1.0, 2.0**40, 2.0**-40, 1e300, 1e-300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return planted(rng, m, n, rank) * scale, target, s, k, draw(st.integers(0, 2**16))


class TestCertifiedRequired:
    """The singular values of the seed's first draw prove rank(A) >= min(target, s, k) in place
    of A's SVD, or A's SVD decides: either way the rank is min(target, s, k, rank(A))."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(instance=rank_instances())
    def test_equals_required_rank_of_the_data(self, instance):
        a, target, s, k, seed = instance
        assert np.isfinite(a).all()
        expected = min(target, s, k, numerical_rank(a))
        rows, cols = _draw(*a.shape, s, k, seed)
        sing = np.linalg.svd(a[np.ix_(rows, cols)], full_matrices=False)[1]  # as `_draws` takes it
        assert _required(a, target, s, k, sing) == expected

    def test_zero_matrix_fails(self):
        with pytest.raises(SelectionFailed, match="target rank 0 is degenerate"):
            next(_draws(np.zeros((6, 5)), 3, 4, 5, [0]))

    @pytest.mark.parametrize("target_rank", [None, 6])
    def test_cur_sample_on_noisy_data_takes_no_svd_of_a(self, rng, monkeypatch, target_rank):
        a = planted(rng, 40, 30, 4) + 1e-3 * rng.standard_normal((40, 30))
        monkeypatch.setattr("curcluster.cur.numerical_rank", pytest.fail)
        assert cur_sample(a, 8, 20, seed=1, target_rank=target_rank).u.shape == (8, 20)


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
