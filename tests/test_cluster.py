from itertools import permutations

import numpy as np
import pytest

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
        centers = _plus_plus_seed(pts, 4, np.random.default_rng(0))
        _lloyd(pts, centers, 4, history=history)
        assert all(a >= b - 1e-12 for a, b in zip(history, history[1:]))

    def test_deterministic(self, rng):
        pts = rng.standard_normal((30, 2))
        a = kmeans(pts, 3, seed=5)
        b = kmeans(pts, 3, seed=5)
        np.testing.assert_array_equal(a.labels, b.labels)


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


def proto_median(n, seed):
    """`proto`'s median (diagonal pinned to 1) on n points of three 3-dim subspaces, sigma 0.05."""
    model = random_union_model(30, [3, 3, 3], seed=seed)
    w = sample_instance(model, [n // 3] * 3, 0.05, seed=seed + 1).data
    return proto_similarity(w, ProtoConfig(m_subspaces=3, target_rank=9, n_trials=5, seed=seed))


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
