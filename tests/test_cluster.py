import tracemalloc
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import union_instance
from curcluster import ProtoConfig, cluster, random_union_model, sample_instance
from curcluster.cluster import (
    LabelVector,
    _lloyd,
    _plus_plus_seed,
    clustering_error,
    connected_components,
    kmeans,
    ncut_value,
    pcc_cluster,
    spectral_cluster,
)
from curcluster.linalg import pinv
from curcluster.pipeline import proto_similarity
from curcluster.simgen import SimilarityMatrix, binarize, similarity_noise_free


def block_similarity(sizes, cross=0.0):
    n = sum(sizes)
    s = np.full((n, n), cross)
    offset = 0
    for size in sizes:
        s[offset : offset + size, offset : offset + size] = 1.0
        offset += size
    return SimilarityMatrix(entries=s)


@st.composite
def kmeans_inputs(draw):
    """Points (n x d, d = 1..9, scale 1e-3..1e3), k = 1..9 and a seed.

    Scattered, clustered, duplicated and all-identical points; fewer distinct points than k
    force empty-cluster repairs.
    """
    k, d = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    n = draw(st.integers(k, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["scattered", "clustered", "duplicated", "identical"]))
    if kind == "scattered":
        points = rng.standard_normal((n, d))
    elif kind == "clustered":
        centers = 5.0 * rng.standard_normal((k, d))
        points = centers[rng.integers(0, k, n)] + 0.5 * rng.standard_normal((n, d))
    elif kind == "duplicated":
        distinct = rng.standard_normal((draw(st.integers(1, k + 1)), d))
        points = distinct[rng.integers(0, len(distinct), n)]
    else:
        points = np.full((n, d), rng.standard_normal())
    return points * 10.0 ** draw(st.integers(-3, 3)), k, draw(st.integers(0, 1000))


def labels_of(sizes):
    out = []
    for i, size in enumerate(sizes):
        out.extend([i] * size)
    return LabelVector(labels=np.array(out), m_clusters=len(sizes))


class TestKmeans:
    def test_separated_clouds(self, rng):
        pts = np.vstack([rng.normal(0, 0.1, (10, 2)), rng.normal(10, 0.1, (10, 2))])
        result = kmeans(pts, 2, seed=0)
        assert clustering_error(result, labels_of([10, 10])) == 0.0

    def test_one_point_per_cluster(self):
        pts = np.array([[0.0], [5.0], [9.0]])
        result = kmeans(pts, 3, seed=0)
        assert len(set(result.labels.tolist())) == 3

    def test_matches_exhaustive_wcss(self):
        pts = np.array([[0.0], [0.1], [5.0], [5.1]])
        result = kmeans(pts, 2, seed=0)
        assert clustering_error(result, labels_of([2, 2])) == 0.0

    def test_wcss_monotone(self, rng):
        pts = rng.standard_normal((40, 3))
        history = []
        centers = _plus_plus_seed(pts, 4, 20, np.random.default_rng(0))
        _lloyd(pts, centers, history=history)
        for run in np.transpose(history):  # one restart's WCSS per iteration
            assert all(a >= b - 1e-12 for a, b in zip(run, run[1:]))

    @pytest.mark.filterwarnings("error")
    def test_deterministic(self, rng):
        pts = rng.standard_normal((30, 2))
        a = kmeans(pts, 3, seed=5)
        b = kmeans(pts, 3, seed=5)
        np.testing.assert_array_equal(a.labels, b.labels)
        # a power-of-two scale is undone exactly, so points whose squares would overflow or
        # underflow get the labels of scale 1
        for e in (-700, -300, 300, 700):
            np.testing.assert_array_equal(kmeans(np.ldexp(pts, e), 3, seed=5).labels, a.labels)

    @pytest.mark.parametrize("n, k", [(6, 3), (3, 3), (10, 4), (50, 5)])
    def test_identical_points_fill_every_cluster(self, n, k):
        # every repair of an empty cluster takes a point from a cluster with more than one;
        # an emptied cluster would warn "Mean of empty slice" (an error in this suite)
        labels = kmeans(np.zeros((n, 2)), k, seed=0).labels
        assert np.bincount(labels, minlength=k).min() >= 1

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(kmeans_inputs())
    def test_lloyd_fixed_point(self, case):
        # no cluster is empty, and no point is nearer another cluster's mean than its own
        # beyond round-off of the points' squared norms
        points, k, seed = case
        labels = kmeans(points, k, seed).labels
        assert np.bincount(labels, minlength=k).min() >= 1
        means = np.array([points[labels == j].mean(axis=0) for j in range(k)])
        d2 = np.sum((points[:, None, :] - means[None, :, :]) ** 2, axis=2)
        scale = np.max(np.sum(points**2, axis=1))
        assert np.all(d2[np.arange(len(points)), labels] - d2.min(axis=1) <= 1e-9 * scale)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_distances_and_means_match_one_restart(self, d):
        # each restart's matmul distances and one-hot means equal one restart's direct numpy
        # sums to round-off: of the squared norms for a distance, of the largest |x| for a mean
        rng = np.random.default_rng(d)
        points = rng.standard_normal((50, d)) * 10.0 ** rng.uniform(-3, 3, (50, d))
        centers = rng.standard_normal((4, 5, d)) * 10.0 ** rng.uniform(-3, 3, (4, 5, d))
        d2 = cluster._sq_distances(points, centers)
        norms = np.sum(centers**2, axis=2)[:, :, None] + np.sum(points**2, axis=1)
        for t in range(4):
            direct = np.sum((centers[t][:, None, :] - points[None, :, :]) ** 2, axis=2)
            assert np.all(np.abs(d2[t] - direct) <= 1e-14 * norms[t])
        labels, _ = _lloyd(points, centers)  # leaves each restart's means in `centers`
        for t in range(4):
            means = [points[labels[t] == j].mean(axis=0) for j in range(5)]
            np.testing.assert_allclose(centers[t], means, rtol=0,
                                       atol=1e-14 * np.abs(points).max())

    def test_distances_do_not_grow_with_restarts(self, rng):
        # the kmeans backend's shape, d = n: the distances come from one product of the restarts'
        # centers with the points, so no n x k x d array is formed; the peak (0.64 of the unit
        # below) is the points' scaled copy and a few restarts x k x n arrays
        n, k = 400, 3
        points = rng.random((n, n))
        tracemalloc.start()
        try:
            kmeans(points, k, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * k * n, f"peak {peak / (8 * n * k * n):.2f} n x k x d arrays"


class TestSpectralCluster:
    def test_two_blocks(self):
        result = spectral_cluster(block_similarity([4, 4]), 2, seed=0)
        assert clustering_error(result, labels_of([4, 4])) == 0.0

    def test_identity_each_alone(self):
        sim = SimilarityMatrix(entries=np.eye(5))
        result = spectral_cluster(sim, 5, seed=0)
        assert len(set(result.labels.tolist())) == 5

    def test_weak_cross_noise(self):
        sim = block_similarity([6, 6], cross=0.01)
        result = spectral_cluster(sim, 2, seed=0)
        # oracle: components of the similarity thresholded at 0.5
        hard = SimilarityMatrix(entries=(sim.entries > 0.5).astype(float))
        oracle = connected_components(hard)
        assert clustering_error(result, oracle) == 0.0


class TestPccCluster:
    def test_two_blocks(self):
        result = pcc_cluster(block_similarity([5, 3]), 2, seed=0)
        assert clustering_error(result, labels_of([5, 3])) == 0.0

    def test_all_ones_single_cluster(self):
        sim = SimilarityMatrix(entries=np.ones((6, 6)))
        result = pcc_cluster(sim, 1, seed=0)
        assert set(result.labels.tolist()) == {0}

    def test_noise_free_instance(self):
        inst = union_instance(3)
        y = pinv(inst.data) @ inst.data
        sim = similarity_noise_free(y, max(inst.model.subspace_dims), "absolute")
        # the co-subspace pattern: blocks of ones, exactly rank 1 each
        pattern = SimilarityMatrix(entries=binarize(sim.entries))
        result = pcc_cluster(pattern, inst.model.n_subspaces, seed=0)
        assert clustering_error(result, inst.truth) == 0.0

    def test_m_above_n_raises(self):
        with pytest.raises(ValueError, match="got M=5, n=4"):
            pcc_cluster(block_similarity([2, 2]), 5, seed=0)

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            pcc_cluster(SimilarityMatrix(entries=np.zeros((4, 4))), 2, seed=0)

    def test_needs_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("pcc_cluster took an SVD")

        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        result = pcc_cluster(block_similarity([5, 3]), 2, seed=0)
        assert clustering_error(result, labels_of([5, 3])) == 0.0
        assert len(calls) == 1


def proto_median(n, seed, n_trials=5):
    """`proto`'s median (diagonal pinned to 1) on n points of three 3-dim subspaces, sigma 0.05."""
    model = random_union_model(30, [3, 3, 3], seed=seed)
    w = sample_instance(model, [n // 3] * 3, 0.05, seed=seed + 1).data
    return proto_similarity(w, ProtoConfig(m_subspaces=3, target_rank=9, n_trials=n_trials,
                                           seed=seed))


def svd_coordinates(sim, m):
    """The order-m principal coordinates as the full SVD gives them: rows of V_m Sigma_m."""
    _, singulars, vt = np.linalg.svd(sim.entries)
    return vt[:m].T * singulars[:m]


def assert_pcc_matches_svd(monkeypatch, sim, m):
    """The points `pcc_cluster` hands to k-means are the SVD coordinates up to column sign."""
    seen = []
    monkeypatch.setattr(cluster, "kmeans", lambda points, m_clusters, seed: seen.append(points))
    pcc_cluster(sim, m, seed=0)
    expected = svd_coordinates(sim, m)
    signs = np.sign(np.sum(seen[0] * expected, axis=0))
    np.testing.assert_allclose(seen[0] * signs, expected, rtol=0,
                               atol=1e-12 * np.abs(expected).max())


class TestPccMatchesSvd:
    """The eigh coordinates are the SVD's up to column sign, and give the same labels."""

    def test_coordinates_up_to_sign(self, monkeypatch):
        assert_pcc_matches_svd(monkeypatch, proto_median(300, seed=80), 3)

    def test_order_is_by_magnitude(self, monkeypatch):
        # zero diagonal: after the Perron value 59.7 the largest |lambda| are -6.86 and -6.52
        a = np.random.default_rng(86).random((60, 60))
        entries = a + a.T
        np.fill_diagonal(entries, 0.0)
        assert_pcc_matches_svd(monkeypatch, SimilarityMatrix(entries=entries), 3)

    @pytest.mark.parametrize("seed", range(81, 86))
    def test_same_labels(self, seed):
        sim = proto_median(150, seed)
        expected = kmeans(svd_coordinates(sim, 3), 3, seed=seed)
        np.testing.assert_array_equal(pcc_cluster(sim, 3, seed=seed).labels, expected.labels)


def pcc_points(monkeypatch, sim, m):
    """The points `pcc_cluster` hands to k-means, and the orders of the `eigh`s it takes."""
    points, orders = [], []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: orders.append(len(a)) or eigh(a))
    monkeypatch.setattr(cluster, "kmeans", lambda pts, m_clusters, seed: points.append(pts))
    pcc_cluster(sim, m, seed=0)
    return points[0], orders


@pytest.fixture(scope="module")
def median_600():
    return proto_median(600, seed=88, n_trials=25)


@pytest.fixture(scope="module")
def median_300():
    return proto_median(300, seed=0, n_trials=3)


class TestPccSubspaceIteration:
    """From order `_SUBSPACE_MIN_N` on, the coordinates come from the shifted subspace iteration."""

    def test_coordinates_up_to_sign(self, monkeypatch, median_600):
        assert_pcc_matches_svd(monkeypatch, median_600, 3)

    def test_takes_no_full_eigh(self, monkeypatch, median_600):
        _, orders = pcc_points(monkeypatch, median_600, 3)
        assert orders and max(orders) == 3 + cluster._SUBSPACE_OVERSAMPLE

    def test_same_labels_as_eigh(self, monkeypatch, median_600):
        labels = pcc_cluster(median_600, 3, seed=88).labels
        monkeypatch.setattr(cluster, "_SUBSPACE_MIN_N", 601)  # the full eigh path
        np.testing.assert_array_equal(labels, pcc_cluster(median_600, 3, seed=88).labels)

    def test_deterministic(self, monkeypatch, median_600):
        first, _ = pcc_points(monkeypatch, median_600, 3)
        second, _ = pcc_points(monkeypatch, median_600, 3)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("certified", [True, False])
    def test_order_is_by_magnitude(self, monkeypatch, certified):
        # zero diagonal, so no shift; nonnegative, so the Perron value leads
        rng = np.random.default_rng(87)
        if certified:  # a weighted three-part graph: 183.1, -154.6, -28.8, then |lambda| <= 7.1
            groups = np.repeat([0, 1, 2], [150, 150, 100])
            weights = np.array([[0, 1, 0.6], [1, 0, 0.3], [0.6, 0.3, 0]])
            a = weights[groups][:, groups] * (0.5 + rng.random((400, 400)))
        else:  # uniform: 199.3, then -11.98, -11.59, -11.37, ... too close to certify
            a = rng.random((400, 400))
        entries = np.triu(a, 1) + np.triu(a, 1).T
        sim = SimilarityMatrix(entries=entries)
        _, orders = pcc_points(monkeypatch, sim, 3)
        assert (max(orders) == 400) is not certified
        assert_pcc_matches_svd(monkeypatch, sim, 3)

    def test_large_diagonal_falls_back(self, monkeypatch):
        # 10 I plus a weighted three-part graph: 65.9, a bulk from 10.9 down, and -10.6
        # twice; the iteration on S - 10 I converges to 65.9 and the -10.6 pair
        rng = np.random.default_rng(89)
        groups = np.repeat([0, 1, 2], 100)
        a = 0.1 * rng.random((300, 300)) + 0.205 * (groups[:, None] != groups)
        sim = SimilarityMatrix(entries=np.triu(a, 1) + np.triu(a, 1).T + 10 * np.eye(300))
        _, orders = pcc_points(monkeypatch, sim, 3)
        assert max(orders) == 300
        assert_pcc_matches_svd(monkeypatch, sim, 3)

    @pytest.mark.parametrize("left_out, certified",
                             [(4.5, False), (-4.5, False), (2.5, True), (-2.5, True)])
    def test_certificate_sees_both_signs(self, left_out, certified):
        values = np.array([5.0, 4.0, -3.0, left_out, 1.0, -1.0, 0.5, 0.0])
        q = np.linalg.qr(np.random.default_rng(90).standard_normal((8, 8)))[0]
        a = (q * values) @ q.T
        assert cluster._certified(a, values[:3], q[:, :3], a @ q[:, :3]) is certified

    def test_gives_up_when_stalled(self, monkeypatch):
        # uniform: 199.3, then -11.98, -11.59, -11.37, ...: the residual shrinks about 8% a
        # block product, so it would need about 400 products; the iteration stops after 13 of
        # its 50
        a = np.triu(np.random.default_rng(87).random((400, 400)), 1)
        a = a + a.T
        found, products = leading_pairs_and_products(a)
        assert found is None and products <= 16
        _, orders = pcc_points(monkeypatch, SimilarityMatrix(entries=a), 3)
        assert orders[-1] == 400

    def test_all_zero_raises(self):
        n = cluster._SUBSPACE_MIN_N
        with pytest.raises(ValueError):
            pcc_cluster(SimilarityMatrix(entries=np.zeros((n, n))), 2, seed=0)


def leading_pairs_and_products(a, m=3):
    """`_leading_eigenpairs(a, m)` and the number of block products a @ X it took."""
    products = []

    class Counting(np.ndarray):
        def __matmul__(self, other):
            products.append(1)
            return np.asarray(self) @ other

    return cluster._leading_eigenpairs(a.view(Counting), m), len(products)


def assert_pairs_match_eigh(found, a, m=3):
    """Certified pairs equal to `eigh`'s m of largest |lambda|, vectors up to sign."""
    values, vectors = np.linalg.eigh(a)
    order = np.argsort(-np.abs(values), kind="stable")[:m]
    scale = np.abs(values).max()
    np.testing.assert_allclose(found[0], values[order], rtol=0, atol=1e-12 * scale)
    signs = np.sign(np.sum(found[1] * vectors[:, order], axis=0))
    np.testing.assert_allclose(found[1] * signs, vectors[:, order], rtol=0, atol=1e-10)


class TestChebyshevFilter:
    """The filtered iteration's product counts, its plain step at rho = 0, and its scale range."""

    def test_few_products_on_a_two_trial_median(self):
        # the plain shifted step takes 38 block products here (37 with every column); the filter
        # takes 29
        a = proto_median(600, seed=88, n_trials=2).entries
        found, products = leading_pairs_and_products(a)
        assert found is not None and products <= 33
        assert_pairs_match_eigh(found, a)

    def test_certifies_where_the_plain_step_runs_out(self):
        # shifted by s = 1: 2.0, 0.5, 0.4 lead a bulk from -0.06 to 0.25, sparse at its top as in
        # proto's medians; the plain shifted step converges at about 0.25 / 0.4 a product and runs
        # out of its 50, the filter certifies in 37
        n = 400
        q = np.linalg.qr(np.random.default_rng(91).standard_normal((n, n)))[0]
        lam = 1.0 + np.concatenate([[2.0, 0.5, 0.4],
                                    -0.06 + 0.31 * np.linspace(0.0, 1.0, n - 3) ** 4])
        a = (q * lam) @ q.T
        a = 0.5 * (a + a.T)
        found, products = leading_pairs_and_products(a)
        assert found is not None and products <= n // (3 + cluster._SUBSPACE_OVERSAMPLE)
        assert_pairs_match_eigh(found, a)

    def test_zero_radius_takes_the_plain_step(self, monkeypatch):
        # unit diagonal, so s = 1 exactly, and a unit-vector start on eight points with no edge
        # between them: every first Ritz value is exactly 1, rho = 0, and a filter would divide
        # by it (a RuntimeWarning, which the suite makes an error)
        n = 300
        rng = np.random.default_rng(92)
        groups = np.repeat([0, 1, 2], 100)
        a = (0.3 + 0.2 * rng.random((n, n))) * (groups[:, None] == groups)
        a += 0.05 * rng.random((n, n))
        a = np.triu(a, 1) + np.triu(a, 1).T + np.eye(n)
        a[:8, :8] = np.eye(8)
        start = SimpleNamespace(standard_normal=lambda shape: np.eye(*shape))
        monkeypatch.setattr(np.random, "default_rng", lambda seed: start)
        block = 3 + cluster._SUBSPACE_OVERSAMPLE
        x = np.linalg.qr(np.eye(n, block))[0]
        assert np.trace(a) / n == 1.0 and np.all(np.linalg.eigh(x.T @ a @ x)[0] == 1.0)
        found, products = leading_pairs_and_products(a)
        assert found is not None and products <= n // block
        assert_pairs_match_eigh(found, a)

    @pytest.mark.parametrize("exponent", [-1000, -500, -30, 40, 500])
    def test_finite_at_every_scale(self, exponent, median_300):
        # a power-of-two scale of a 3-trial median: certified pairs are finite and give the
        # labels of scale 1; at 2^-1000 the subnormal round-off leaves them uncertified and
        # `eigh` takes over
        sim = median_300
        scaled = np.ldexp(sim.entries, exponent)
        found = cluster._leading_eigenpairs(scaled, 3)
        if found is not None:
            assert np.isfinite(found[0]).all() and np.isfinite(found[1]).all()
            assert_pairs_match_eigh(found, scaled)
        np.testing.assert_array_equal(pcc_cluster(SimilarityMatrix(entries=scaled), 3, 0).labels,
                                      pcc_cluster(sim, 3, 0).labels)


class TestConnectedComponents:
    def test_two_blocks(self):
        result = connected_components(block_similarity([3, 5]))
        assert result.m_clusters == 2
        assert clustering_error(result, labels_of([3, 5])) == 0.0

    def test_identity(self):
        result = connected_components(SimilarityMatrix(entries=np.eye(4)))
        assert result.m_clusters == 4

    def test_chain(self):
        n = 6
        s = np.eye(n)
        for i in range(n - 1):
            s[i, i + 1] = s[i + 1, i] = 1.0
        result = connected_components(SimilarityMatrix(entries=s))
        assert result.m_clusters == 1


class TestNcut:
    def test_block_diagonal_zero(self):
        sim = block_similarity([3, 4])
        assert ncut_value(sim, labels_of([3, 4])) == 0.0

    def test_two_nodes_split(self):
        s = np.array([[0.0, 1.0], [1.0, 0.0]])
        sim = SimilarityMatrix(entries=s)
        labels = LabelVector(labels=np.array([0, 1]), m_clusters=2)
        assert ncut_value(sim, labels) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        s = rng.random((n, n))
        s = 0.5 * (s + s.T)
        sim = SimilarityMatrix(entries=s)
        labels = LabelVector(labels=rng.integers(0, 2, n), m_clusters=2)
        degrees = s.sum(axis=1)
        expected = 0.0
        for c in range(2):
            vol = sum(degrees[p] for p in range(n) if labels.labels[p] == c)
            cut = sum(
                s[i, j]
                for i in range(n)
                for j in range(n)
                if labels.labels[i] == c and labels.labels[j] != c
            )
            expected += 1.0 if vol < 1e-12 else 0.5 * cut / vol
        assert ncut_value(sim, labels) == pytest.approx(expected, abs=1e-12)

    def test_empty_volume_penalty(self):
        sim = SimilarityMatrix(entries=np.zeros((3, 3)))
        labels = LabelVector(labels=np.array([0, 0, 1]), m_clusters=2)
        assert ncut_value(sim, labels) == 2.0

    def test_length_mismatch(self):
        sim = block_similarity([2, 2])
        with pytest.raises(ValueError):
            ncut_value(sim, LabelVector(labels=np.array([0, 1]), m_clusters=2))


class TestClusteringError:
    def test_identical(self):
        a = labels_of([3, 3])
        assert clustering_error(a, a) == 0.0

    def test_permutation_invariant(self):
        a = labels_of([3, 3])
        swapped = LabelVector(labels=1 - a.labels, m_clusters=2)
        assert clustering_error(swapped, a) == 0.0

    def test_one_flip(self):
        truth = labels_of([5, 5])
        flipped = truth.labels.copy()
        flipped[0] = 1
        assert clustering_error(LabelVector(labels=flipped, m_clusters=2), truth) == 10.0

    @pytest.mark.parametrize("seed", range(10))
    def test_pseudometric_under_relabeling(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        labels = rng.integers(0, m, 20)
        a = LabelVector(labels=labels, m_clusters=m)
        perm = rng.permutation(m)
        b = LabelVector(labels=perm[labels], m_clusters=m)
        assert clustering_error(b, a) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            clustering_error(labels_of([2]), labels_of([3]))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_permutation_search(self, seed):
        rng = np.random.default_rng(seed)
        m_pred, m_truth = (int(m) for m in rng.integers(1, 7, 2))
        n = int(rng.integers(1, 30))
        predicted = LabelVector(labels=rng.integers(0, m_pred, n), m_clusters=m_pred)
        truth = LabelVector(labels=rng.integers(0, m_truth, n), m_clusters=m_truth)
        size = max(m_pred, m_truth)
        fewest = min(int(np.sum(np.asarray(perm)[predicted.labels] != truth.labels))
                     for perm in permutations(range(size)))
        assert clustering_error(predicted, truth) == 100.0 * fewest / n

    def test_sixty_clusters(self):
        truth = labels_of([2] * 60)
        relabeled = np.random.default_rng(0).permutation(60)[truth.labels]
        assert clustering_error(LabelVector(labels=relabeled, m_clusters=60), truth) == 0.0
        relabeled[[0, 5]] = relabeled[[2, 7]]  # point 0 joins cluster 1, point 5 cluster 3
        moved = LabelVector(labels=relabeled, m_clusters=60)
        assert clustering_error(moved, truth) == 100.0 * 2 / 120

    def test_more_predicted_than_true_clusters(self):
        # every point alone: one point per true cluster stays matched
        truth = labels_of([5, 5, 5])
        singletons = LabelVector(labels=np.arange(15), m_clusters=15)
        assert clustering_error(singletons, truth) == 100.0 * 12 / 15


class TestBackendAgreement:
    @pytest.mark.parametrize("seed", range(10))
    def test_exact_similarity_all_backends_agree(self, seed):
        inst = union_instance(seed)
        y = pinv(inst.data) @ inst.data
        sim = similarity_noise_free(y, max(inst.model.subspace_dims), "absolute")
        m = inst.model.n_subspaces
        cc = connected_components(sim)
        assert cc.m_clusters == m
        assert clustering_error(spectral_cluster(sim, m, seed=0), cc) == 0.0
        # principal coordinates separate the blocks cleanly on the 0/1 pattern,
        # where each block is exactly rank one
        pattern = SimilarityMatrix(entries=binarize(sim.entries))
        assert clustering_error(pcc_cluster(pattern, m, seed=0), cc) == 0.0
