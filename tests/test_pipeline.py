import numpy as np
import pytest

from conftest import union_instance
from curcluster import cur
from curcluster.cluster import LabelVector, clustering_error, ncut_value
from curcluster.cur import SelectionFailed
from curcluster.pipeline import (
    ProtoConfig,
    RcurConfig,
    cluster_noise_free,
    proto_cluster,
    proto_similarity,
    rcur_cluster,
)
from curcluster.simgen import elementwise_power, median_aggregate, normalize_columns
from curcluster.linalg import pinv
from curcluster.synth import random_union_model, sample_instance


def two_line_data():
    # two independent 1-dim subspaces, two generic points on each
    return np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 3.0]])


class TestClusterNoiseFree:
    def test_two_lines(self):
        labels = cluster_noise_free(two_line_data(), d_max=1)
        truth = LabelVector(labels=np.array([0, 0, 1, 1]), m_clusters=2)
        assert clustering_error(labels, truth) == 0.0

    def test_single_subspace_single_label(self, rng):
        basis = rng.standard_normal((8, 2))
        w = basis @ rng.standard_normal((2, 6))
        labels = cluster_noise_free(w, d_max=2)
        assert labels.m_clusters == 1

    def test_three_planes(self):
        model = random_union_model(10, [2, 2, 2], seed=7)
        inst = sample_instance(model, [5, 5, 5], 0.0, seed=8)
        labels = cluster_noise_free(inst.data, d_max=2)
        assert clustering_error(labels, inst.truth) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, seed):
        inst = union_instance(seed)
        labels = cluster_noise_free(inst.data, max(inst.model.subspace_dims))
        assert clustering_error(labels, inst.truth) == 0.0

    def test_binary_kind_agrees(self):
        inst = union_instance(4)
        d_max = max(inst.model.subspace_dims)
        a = cluster_noise_free(inst.data, d_max, "absolute")
        b = cluster_noise_free(inst.data, d_max, "binary")
        assert clustering_error(a, b) == 0.0


class TestProtoConfig:
    def test_defaults(self):
        cfg = ProtoConfig(m_subspaces=2, target_rank=8)
        assert cfg.rows() == 8
        assert cfg.cols(100) == 100

    def test_explicit_cols(self):
        cfg = ProtoConfig(m_subspaces=2, target_rank=4, cols_per_trial=10)
        assert cfg.cols(100) == 10

    def test_rejects_rank_below_subspace_count(self):
        with pytest.raises(ValueError):
            ProtoConfig(m_subspaces=3, target_rank=2)

    def test_rejects_rows_below_rank(self):
        with pytest.raises(ValueError):
            ProtoConfig(m_subspaces=2, target_rank=6, rows_per_trial=4)

    def test_rejects_bad_backend(self):
        with pytest.raises(ValueError):
            ProtoConfig(m_subspaces=2, target_rank=4, backend="agglomerative")

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            ProtoConfig(m_subspaces=2, target_rank=4, n_trials=0)


class TestProtoCluster:
    @pytest.mark.parametrize("seed", [0, 1, 17, 99])
    def test_noise_free_zero_error_any_seed(self, seed):
        model = random_union_model(30, [3, 3], seed=2)
        inst = sample_instance(model, [8, 8], 0.0, seed=3)
        cfg = ProtoConfig(m_subspaces=2, target_rank=6, n_trials=5, seed=seed)
        labels = proto_cluster(inst.data, cfg)
        assert clustering_error(labels, inst.truth) == 0.0

    def test_single_trial_is_identity_aggregation(self):
        inst = union_instance(2)
        rank = sum(inst.model.subspace_dims)
        cfg = ProtoConfig(
            m_subspaces=inst.model.n_subspaces, target_rank=rank, n_trials=1, seed=0
        )
        single = proto_similarity(inst.data, cfg)
        # median of one matrix is abs of that matrix itself
        agg = median_aggregate([single])
        np.testing.assert_array_equal(single.entries, agg.entries)

    @pytest.mark.parametrize("backend", ["pcc", "spectral", "kmeans"])
    def test_backends_run(self, backend):
        model = random_union_model(20, [2, 2], seed=0)
        inst = sample_instance(model, [6, 6], 0.0, seed=1)
        cfg = ProtoConfig(
            m_subspaces=2, target_rank=4, n_trials=3, backend=backend, seed=0
        )
        labels = proto_cluster(inst.data, cfg)
        assert labels.labels.shape == (12,)

    def test_rejects_rank_above_matrix(self):
        cfg = ProtoConfig(m_subspaces=2, target_rank=10, n_trials=1)
        with pytest.raises(ValueError):
            proto_similarity(np.eye(4), cfg)

    def test_deterministic(self):
        model = random_union_model(40, [3, 3], seed=5)
        inst = sample_instance(model, [10, 10], 0.05, seed=6)
        cfg = ProtoConfig(m_subspaces=2, target_rank=6, n_trials=10, seed=11)
        a = proto_cluster(inst.data, cfg)
        b = proto_cluster(inst.data, cfg)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_noisy_low_sigma_recovers(self):
        model = random_union_model(100, [4, 4], seed=1)
        inst = sample_instance(model, [25, 25], 0.01, seed=2)
        cfg = ProtoConfig(m_subspaces=2, target_rank=8, n_trials=25, seed=0)
        labels = proto_cluster(inst.data, cfg)
        assert clustering_error(labels, inst.truth) <= 2.0


class TestRcurConfig:
    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            RcurConfig(r_min=5, r_max=3, alpha=2.0)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            RcurConfig(r_min=2, r_max=4, alpha=0.0)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            RcurConfig(r_min=2, r_max=4, alpha=1.0, n_trials=0)


class TestRcurCluster:
    def test_window_around_true_rank(self):
        model = random_union_model(30, [3, 3], seed=9)
        inst = sample_instance(model, [8, 8], 0.0, seed=10)
        cfg = RcurConfig(r_min=4, r_max=8, alpha=2.0, n_trials=10, seed=0)
        result = rcur_cluster(inst.data, 2, cfg)
        assert clustering_error(result.labels, inst.truth) == 0.0

    def test_single_rank_window(self):
        model = random_union_model(20, [2, 2], seed=3)
        inst = sample_instance(model, [6, 6], 0.0, seed=4)
        cfg = RcurConfig(r_min=4, r_max=4, alpha=2.0, n_trials=5, seed=0)
        result = rcur_cluster(inst.data, 2, cfg)
        assert result.r_best == 4
        assert len(result.ncut_per_rank) == 1

    def test_r_best_attains_minimum(self):
        model = random_union_model(25, [2, 3], seed=12)
        inst = sample_instance(model, [7, 7], 0.03, seed=13)
        cfg = RcurConfig(r_min=3, r_max=7, alpha=2.0, n_trials=8, seed=1)
        result = rcur_cluster(inst.data, 2, cfg)
        best_ncut = min(v for _, v in result.ncut_per_rank)
        recorded = dict(result.ncut_per_rank)[result.r_best]
        assert recorded == best_ncut
        # ties break toward the smaller rank
        smaller_winners = [r for r, v in result.ncut_per_rank if v == best_ncut]
        assert result.r_best == min(smaller_winners)

    def test_correct_labels_beat_random_ncut(self):
        model = random_union_model(30, [3, 3], seed=20)
        inst = sample_instance(model, [10, 10], 0.0, seed=21)
        r = 6
        rng = np.random.default_rng(0)
        trial_sims = []
        for i in range(10):
            rows = np.sort(rng.choice(30, r, replace=False))
            y = pinv(inst.data[rows]) @ inst.data[rows]
            trial_sims.append(normalize_columns(y).T @ normalize_columns(y))
        sim = elementwise_power(median_aggregate(trial_sims), 2.0)
        random_labels = LabelVector(labels=rng.integers(0, 2, 20), m_clusters=2)
        assert ncut_value(sim, inst.truth) < ncut_value(sim, random_labels)

    def test_rejects_rank_above_matrix(self):
        cfg = RcurConfig(r_min=2, r_max=10, alpha=1.0, n_trials=1)
        with pytest.raises(ValueError):
            rcur_cluster(np.eye(5), 2, cfg)

    def test_deterministic(self):
        model = random_union_model(25, [3, 2], seed=30)
        inst = sample_instance(model, [7, 6], 0.02, seed=31)
        cfg = RcurConfig(r_min=3, r_max=6, alpha=2.0, n_trials=6, seed=4)
        a = rcur_cluster(inst.data, 2, cfg)
        b = rcur_cluster(inst.data, 2, cfg)
        np.testing.assert_array_equal(a.labels.labels, b.labels.labels)
        assert a.r_best == b.r_best
        assert a.ncut_per_rank == b.ncut_per_rank


@pytest.fixture
def counted(monkeypatch):
    """Count np.linalg.svd and select_uniform calls made while the test runs."""
    calls = {"svd": 0, "select": 0}
    svd, select = np.linalg.svd, cur.select_uniform

    def counting_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    def counting_select(*args, **kwargs):
        calls["select"] += 1
        return select(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(cur, "select_uniform", counting_select)
    return calls


class TestOneSvdPerTrial:
    """rank(W) once per pipeline call, then one SVD of U per accepted draw."""

    def noisy(self):
        model = random_union_model(30, [3, 3], seed=40)
        return sample_instance(model, [10, 10], 0.01, seed=41)

    def test_proto(self, counted):
        cfg = ProtoConfig(m_subspaces=2, target_rank=6, n_trials=7, seed=2)
        proto_similarity(self.noisy().data, cfg)
        assert counted["select"] == 7  # every first draw was rank-sufficient
        assert counted["svd"] == 1 + 7

    def test_rcur(self, counted):
        cfg = RcurConfig(r_min=3, r_max=6, alpha=2.0, n_trials=5, seed=1)
        rcur_cluster(self.noisy().data, 2, cfg)
        assert counted["select"] == 4 * 5
        # eigh, not svd, embeds the spectral step
        assert counted["svd"] == 1 + 4 * 5


class TestDegenerateInput:
    def test_zero_matrix_proto(self):
        cfg = ProtoConfig(m_subspaces=2, target_rank=2, n_trials=2)
        with pytest.raises(SelectionFailed, match="target rank 0 is degenerate"):
            proto_cluster(np.zeros((6, 6)), cfg)

    def test_zero_matrix_rcur(self):
        cfg = RcurConfig(r_min=2, r_max=3, alpha=2.0, n_trials=2)
        with pytest.raises(SelectionFailed, match="target rank 0 is degenerate"):
            rcur_cluster(np.zeros((6, 6)), 2, cfg)

    def rank4(self):
        model = random_union_model(30, [2, 2], seed=50)
        return sample_instance(model, [8, 8], 0.0, seed=51)

    def test_proto_target_above_data_rank(self):
        inst = self.rank4()
        cfg = ProtoConfig(m_subspaces=2, target_rank=7, n_trials=5, seed=0)
        labels = proto_cluster(inst.data, cfg)
        assert clustering_error(labels, inst.truth) == 0.0

    def test_rcur_ranks_above_data_rank(self):
        inst = self.rank4()
        cfg = RcurConfig(r_min=3, r_max=7, alpha=2.0, n_trials=5, seed=0)
        result = rcur_cluster(inst.data, 2, cfg)
        assert [r for r, _ in result.ncut_per_rank] == [3, 4, 5, 6, 7]
        assert clustering_error(result.labels, inst.truth) == 0.0
