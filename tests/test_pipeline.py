import os
import subprocess
import sys
import tracemalloc
from inspect import signature
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from conftest import pack, threshold, union_instance
from curcluster import cli, cluster, cur, linalg, pipeline, simgen, synth
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
from curcluster.linalg import numerical_rank, pinv
from curcluster.synth import CASE_DIMS, random_union_model, run_sweep, sample_instance
from test_acceptance import _sweep_config


def two_line_data():
    # two independent 1-dim subspaces, two generic points on each
    return np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 3.0]])


class TestClusterNoiseFree:
    def test_two_lines(self):
        labels = cluster_noise_free(two_line_data())
        truth = LabelVector(labels=np.array([0, 0, 1, 1]), m_clusters=2)
        assert clustering_error(labels, truth) == 0.0

    def test_single_subspace_single_label(self, rng):
        basis = rng.standard_normal((8, 2))
        w = basis @ rng.standard_normal((2, 6))
        labels = cluster_noise_free(w)
        assert labels.m_clusters == 1

    def test_three_planes(self):
        model = random_union_model(10, [2, 2, 2], seed=7)
        inst = sample_instance(model, [5, 5, 5], 0.0, seed=8)
        labels = cluster_noise_free(inst.data)
        assert clustering_error(labels, inst.truth) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, seed):
        inst = union_instance(seed)
        labels = cluster_noise_free(inst.data)
        assert clustering_error(labels, inst.truth) == 0.0

    def test_subspaces_fill_the_ambient_space(self, rng):
        # rank(W) = m, so the SVD cut keeps every singular vector; the planes are oblique
        inst = sample_instance(random_union_model(5, [2, 3], seed=3), [6, 6], 0.0, seed=4)
        labels = cluster_noise_free(rng.standard_normal((5, 5)) @ inst.data)
        assert clustering_error(labels, inst.truth) == 0.0

    def test_binary_kind_agrees(self):
        # the 0/1 pattern power and the float power of |Y.T Y| share their zero pattern
        inst = union_instance(4)
        d_max = max(inst.model.subspace_dims)
        y = pinv(inst.data) @ inst.data
        absolute = cluster.connected_components(simgen.similarity_noise_free(y, d_max, "absolute"))
        np.testing.assert_array_equal(cluster_noise_free(inst.data).labels, absolute.labels)


class TestProtoConfig:
    def test_defaults(self):
        cfg = ProtoConfig(m_subspaces=2, target_rank=8)
        assert cfg.rows() == 8
        assert cfg.cols(100) == 100
        cfg = ProtoConfig(m_subspaces=3, target_rank=12)  # min(n, 24 r) columns
        assert cfg.cols(1200) == 288
        assert cfg.cols(150) == 150

    def test_explicit_cols(self):
        cfg = ProtoConfig(m_subspaces=2, target_rank=4, cols_per_trial=10)
        assert cfg.cols(100) == 10
        assert ProtoConfig(m_subspaces=3, target_rank=12, cols_per_trial=1200).cols(1200) == 1200

    @pytest.mark.parametrize("case, backend", [(1, "pcc"), (1, "spectral"), (2, "spectral")],
                             ids=["8a", "8b", "8c"])
    def test_acceptance_sweeps_take_every_column(self, case, backend):
        # the column default leaves criteria 8a/8b/8c's trials as they were with every column
        n = len(CASE_DIMS[case]) * signature(run_sweep).parameters["points_per_subspace"].default
        assert _sweep_config(case, backend).cols(n) == n

    def test_rejects_rank_below_subspace_count(self):
        with pytest.raises(ValueError):
            ProtoConfig(m_subspaces=3, target_rank=2)

    def test_rejects_rows_below_rank(self):
        with pytest.raises(ValueError):
            ProtoConfig(m_subspaces=2, target_rank=6, rows_per_trial=4)

    def test_rejects_cols_below_rank(self):
        # two columns would cap every trial's rank at 2, far below the 12 asked for
        with pytest.raises(ValueError, match="cols_per_trial must be >= target_rank"):
            ProtoConfig(m_subspaces=3, target_rank=12, cols_per_trial=2)
        assert ProtoConfig(m_subspaces=3, target_rank=12, cols_per_trial=12).cols(60) == 12

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

    def test_noise_free_zero_error_with_fewer_columns(self):
        model = random_union_model(30, [2, 2], seed=4)
        inst = sample_instance(model, [60, 60], 0.0, seed=5)
        cfg = ProtoConfig(m_subspaces=2, target_rank=4, n_trials=5, seed=0)
        assert cfg.cols(120) == 96  # the default, below n
        assert clustering_error(proto_cluster(inst.data, cfg), inst.truth) == 0.0

    def test_trial_y_has_target_rank_from_more_rows(self, monkeypatch):
        # at s = 4r rows U's SVD is cut to r, so Y = pinv(U) R projects onto a rank-r row space;
        # uncut, a noisy U has full rank s
        w = sample_instance(random_union_model(40, [3, 3], seed=7), [20, 20], 0.05, seed=8).data
        assert len(next(cur._draws(w, 6, 24, 40, [0]))[3][1]) == 24
        ranks = []
        kernel = simgen.threshold_volumetric
        monkeypatch.setattr(simgen, "threshold_volumetric",
                            lambda y, m: ranks.append(numerical_rank(y)) or kernel(y, m))
        proto_similarity(w, ProtoConfig(m_subspaces=2, target_rank=6, rows_per_trial=24,
                                        n_trials=3))
        assert ranks == [6, 6, 6]

    def test_single_trial_is_identity_aggregation(self):
        inst = union_instance(2)
        rank = sum(inst.model.subspace_dims)
        cfg = ProtoConfig(
            m_subspaces=inst.model.n_subspaces, target_rank=rank, n_trials=1, seed=0
        )
        single = proto_similarity(inst.data, cfg)
        # median of one matrix is abs of that matrix itself
        agg = median_aggregate(pack([single.entries]), len(single.entries))
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
        sim = elementwise_power(median_aggregate(pack(trial_sims), 20), 2.0)
        random_labels = LabelVector(labels=rng.integers(0, 2, 20), m_clusters=2)
        assert ncut_value(sim, inst.truth) < ncut_value(sim, random_labels)

    def test_rank_result_independent_of_r_min(self):
        # every rank medians the same r_max-row draws and clusters with the config's seed
        inst = sample_instance(random_union_model(25, [2, 3], seed=12), [7, 7], 0.03, seed=13)
        results = [rcur_cluster(inst.data, 2, RcurConfig(r_min, 7, 2.0, n_trials=8, seed=1))
                   for r_min in (3, 5)]
        assert results[0].ncut_per_rank[2:] == results[1].ncut_per_rank

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
    """Count np.linalg.svd calls and row/column draws (`select_uniform`'s and `_draws`')."""
    calls = {"svd": 0, "select": 0}
    svd, select = np.linalg.svd, cur._draw

    def counting_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    def counting_select(*args, **kwargs):
        calls["select"] += 1
        return select(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(cur, "_draw", counting_select)
    return calls


class TestOneSvdPerTrial:
    """One draw and one SVD of U per accepted trial and no other: the first trial's own singular
    values prove the rank the trials need (`cur._required`) in place of W's SVD."""

    def noisy(self):
        model = random_union_model(30, [3, 3], seed=40)
        return sample_instance(model, [10, 10], 0.01, seed=41)

    def test_proto(self, counted):
        cfg = ProtoConfig(m_subspaces=2, target_rank=6, n_trials=7, seed=2)
        proto_similarity(self.noisy().data, cfg)
        assert counted["select"] == 7  # every first draw was rank-sufficient
        assert counted["svd"] == 7

    def test_rcur(self, counted):
        # one draw of r_max rows per trial serves every rank
        for r_min in (2, 4, 6):
            counted.update(svd=0, select=0)
            cfg = RcurConfig(r_min=r_min, r_max=6, alpha=2.0, n_trials=5, seed=1)
            rcur_cluster(self.noisy().data, 2, cfg)
            assert counted["select"] == 5
            # eigh, not svd, embeds the spectral step
            assert counted["svd"] == 5


class TestCertifiedRank:
    """On noisy data the first draw proves the rank the trials need, and W's SVD is not taken."""

    @pytest.fixture
    def ranks(self, monkeypatch):
        calls = []
        rank = cur.numerical_rank
        monkeypatch.setattr(cur, "numerical_rank", lambda a: calls.append(a.shape) or rank(a))
        return calls

    @pytest.mark.parametrize("cols", [None, 60])  # every column, and fewer
    def test_noisy_proto(self, ranks, cols):
        w = sample_instance(random_union_model(60, [4, 4, 4], seed=60), [50] * 3, 0.05, 61).data
        proto_similarity(w, ProtoConfig(3, 12, n_trials=3, cols_per_trial=cols))
        assert ranks == []

    def test_noisy_rcur(self, ranks):
        w = sample_instance(random_union_model(60, [4, 4, 4], seed=60), [50] * 3, 0.05, 61).data
        rcur_cluster(w, 3, RcurConfig(2, 14, 2.0, n_trials=3))
        assert ranks == []

    def test_noise_free_rcur_above_the_rank_takes_one_svd_of_w(self, ranks):
        w = sample_instance(random_union_model(60, [4, 4, 4], seed=60), [10] * 3, 0.0, 61).data
        result = rcur_cluster(w, 3, RcurConfig(2, 14, 2.0, n_trials=3))
        assert ranks == [w.shape]  # rank(W) = 12 < r_max: the fallback, once
        assert [r for r, _ in result.ncut_per_rank] == list(range(2, 15))


@pytest.fixture
def validations(monkeypatch):
    """Count as_matrix calls through every module binding of it."""
    calls = []
    as_matrix = linalg.as_matrix

    def counting(a):
        calls.append(1)
        return as_matrix(a)

    for module in (linalg, cur, simgen, cluster, pipeline, synth, cli):
        for name, value in list(vars(module).items()):
            if value is as_matrix:
                monkeypatch.setattr(module, name, counting)
    return calls


class TestValidateOnce:
    """Inputs are validated at the entry point, never once per CUR trial."""

    @pytest.mark.parametrize("run", [
        lambda w, k: proto_similarity(w, ProtoConfig(m_subspaces=2, target_rank=6, n_trials=k)),
        lambda w, k: rcur_cluster(w, 2, RcurConfig(r_min=3, r_max=6, alpha=2.0, n_trials=k)),
    ], ids=["proto", "rcur"])
    def test_calls_independent_of_trial_count(self, validations, run):
        w = sample_instance(random_union_model(30, [3, 3], seed=40), [10, 10], 0.01, seed=41).data
        counts = []
        for n_trials in (3, 9):
            del validations[:]
            run(w, n_trials)
            counts.append(len(validations))
        assert counts[0] == counts[1] > 0


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


class TestTrialLoopOwnsStack:
    """Each Gram product goes straight into the stack, which the median reorders in place."""

    @pytest.mark.parametrize("run", [
        lambda w: proto_similarity(w, ProtoConfig(3, 12, n_trials=25)),
        lambda w: rcur_cluster(w, 3, RcurConfig(2, 4, 2.0, n_trials=25)),
    ], ids=["proto", "rcur"])
    def test_peak_below_one_and_a_half_stacks(self, run):
        model = random_union_model(60, [4, 4, 4], seed=60)
        w = sample_instance(model, [100, 100, 100], 0.01, seed=61).data
        stack_bytes = 25 * 300 * 300 * 8
        tracemalloc.start()
        try:
            run(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * stack_bytes, f"peak {peak / stack_bytes:.2f} stacks"

    def test_proto_holds_two_matrices_beside_the_stack(self):
        # the stack, the trial workspace and the median with its validation: 2.1 n x n past it
        model = random_union_model(60, [4, 4, 4], seed=60)
        w = sample_instance(model, [100, 100, 100], 0.01, seed=61).data
        n = w.shape[1]
        tracemalloc.start()
        try:
            proto_similarity(w, ProtoConfig(3, 12, n_trials=25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrices = (peak - 25 * n * (n + 1) // 2 * 8) / (n * n * 8)
        assert matrices < 3.5, f"{matrices:.2f} n x n arrays beside the stack"


class TestPackedStack:
    """The trial loop keeps only upper triangles, so one call peaks below one full stack."""

    def test_one_proto_and_one_rcur_call_below_one_stack(self):
        model = random_union_model(60, [4, 4, 4], seed=60)
        w = sample_instance(model, [100, 100, 100], 0.01, seed=61).data
        stack_bytes = 25 * 300 * 300 * 8
        peaks = []
        for run in (lambda: proto_similarity(w, ProtoConfig(3, 12, n_trials=25)),
                    lambda: rcur_cluster(w, 3, RcurConfig(2, 4, 2.0, n_trials=25))):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1] / stack_bytes)
            finally:
                tracemalloc.stop()
        assert max(peaks) < 1.0, f"peaks {peaks[0]:.2f} and {peaks[1]:.2f} stacks"

    def test_proto_stack_is_float32(self):
        # past a float32 packed stack: the median, its validation and the trial workspace, 2.1
        # n x n float64 arrays; a float64 stack put 9.1 there
        model = random_union_model(60, [4, 4, 4], seed=60)
        w = sample_instance(model, [100, 100, 100], 0.01, seed=61).data
        n = w.shape[1]
        tracemalloc.start()
        try:
            proto_similarity(w, ProtoConfig(3, 12, n_trials=25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrices = (peak - 25 * n * (n + 1) // 2 * 4) / (n * n * 8)
        assert matrices < 3.5, f"{matrices:.2f} n x n float64 arrays beside the float32 stack"


class TestTrialWorkspace:
    """proto's trials reuse one buffer: Y, then F over spent rows of Y, and the Gram matrix after F."""

    @staticmethod
    def draws(k, n, seeds):
        model = random_union_model(30, [4, 4, 4], seed=80)
        w = sample_instance(model, [n // 3] * 3, 0.01, seed=81).data
        return w, list(cur._draws(w, 12, 12, k, seeds))

    # proto_n1200's trial takes 288 of its 1200 columns by default, 1200 with cols_per_trial=1200
    @pytest.mark.parametrize("k, n", [(150, 150), (300, 300), (1200, 1200), (288, 1200),
                                      (100, 300)])
    def test_gram_in_shared_buffer_matches_fresh(self, monkeypatch, k, n):
        w, draws = self.draws(k, n, (0, 1))
        addresses = []
        fold = simgen.fold

        def recording(gram, row):
            assert gram.dtype == np.float32 and np.array_equal(gram, gram.T)
            addresses.append(gram.__array_interface__["data"][0])
            fold(gram, row)

        monkeypatch.setattr(simgen, "fold", recording)
        stack = pipeline._proto_stack(w, draws, 3, k, 2)
        monkeypatch.undo()
        for (_, rows, _, svd), row in zip(draws, stack, strict=True):
            f = threshold(linalg._pinv_from_svd(*svd) @ w[rows], 3)
            fresh, folded = np.empty((n, n), dtype=np.float32), np.empty_like(row)
            simgen.fold(np.matmul(f.T, f, out=fresh), folded)
            np.testing.assert_array_equal(row.view(np.uint32), folded.view(np.uint32))
        assert len(addresses) == 2 and len(set(addresses)) == 1  # one workspace for both trials

    def test_trial_allocates_no_n_by_n_array(self, monkeypatch):
        n = 300
        w, draws = self.draws(n, n, range(4))
        fold = simgen.fold

        def tracing(gram, row):
            if not tracemalloc.is_tracing():  # from the first fold: the stack and workspace exist
                tracemalloc.start()
            fold(gram, row)

        monkeypatch.setattr(simgen, "fold", tracing)
        try:
            pipeline._proto_stack(w, draws, 3, n, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n, f"peak {peak / (4 * n * n):.2f} float32 n x n arrays"

    def test_proto_peak_below_stack_and_one_and_three_quarter_matrices(self):
        # at the default 288 columns this n keeps the folded stack (`_stores_factors`), whose
        # 8n^2-byte workspace is freed before the median: it peaked at 1.08 here, where the
        # factor path's factors, one tile buffer and the median with its validation peaked at 1.48
        model = random_union_model(60, [4, 4, 4], seed=60)
        w = sample_instance(model, [200, 200, 200], 0.01, seed=61).data
        n = w.shape[1]
        tracemalloc.start()
        try:
            proto_similarity(w, ProtoConfig(3, 12, n_trials=25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrices = (peak - 25 * n * (n + 1) // 2 * 4) / (n * n * 8)
        assert matrices < 1.75, f"{matrices:.2f} n x n float64 arrays beside the float32 stack"

    def test_one_threshold_per_trial(self, monkeypatch):
        calls = []
        kernel = simgen.threshold_volumetric
        monkeypatch.setattr(simgen, "threshold_volumetric",
                            lambda *args: calls.append(1) or kernel(*args))
        w = sample_instance(random_union_model(30, [3, 3], seed=40), [10, 10], 0.01, seed=41).data
        proto_similarity(w, ProtoConfig(m_subspaces=2, target_rank=6, n_trials=7))
        assert len(calls) == 7


class TestStoredFactors:
    """Past a size that arithmetic sets, proto keeps its trials' F and takes the median from them."""

    @staticmethod
    def instance(points):
        model = random_union_model(60, [4, 4, 4], seed=60)
        return sample_instance(model, [points] * 3, 0.05, seed=61).data

    @pytest.mark.parametrize("n_trials, k, n, stores", [
        # peaks in MB, factors against folded (each with the float64 median where it coexists)
        (25, 288, 1200, True),  # proto_n1200's ops: 48.9 against 85.3
        (2, 288, 1200, True),  # and its set-up's warm-up median: 15.8 against 17.4
        (25, 1200, 1200, False),  # every column
        (25, 288, 600, False),  # the n = 600 memory test of TestTrialWorkspace: 22.3 against 21.8
        (25, 150, 150, False),  # the acceptance sweeps and sweep_case2: 3.1 against 1.4
    ])
    def test_rule(self, n_trials, k, n, stores):
        assert pipeline._stores_factors(n_trials, k, n) is stores

    @pytest.mark.parametrize("n_trials", [2, 3])
    def test_same_median_as_the_folded_stack(self, monkeypatch, n_trials):
        w = self.instance(400)
        cfg = ProtoConfig(3, 12, n_trials=n_trials, seed=3)
        assert pipeline._stores_factors(n_trials, cfg.cols(1200), 1200)
        factored = proto_similarity(w, cfg).entries
        monkeypatch.setattr(pipeline, "_stores_factors", lambda *args: False)
        folded = proto_similarity(w, cfg).entries
        np.testing.assert_array_equal(factored.view(np.uint64), folded.view(np.uint64))

    def test_factors_in_their_slots_match_fresh(self):
        w = self.instance(100)
        k, n = 61, w.shape[1]  # kn odd: every slot is padded to an even count
        draws = list(cur._draws(w, 12, 12, k, range(3)))
        factors = pipeline._proto_factors(w, draws, 3, k, 3)
        assert factors.shape == (3, k, n) and factors.dtype == np.float32
        for (_, rows, _, svd), f in zip(draws, factors, strict=True):
            fresh = threshold(linalg._pinv_from_svd(*svd) @ w[rows], 3)
            np.testing.assert_array_equal(f.view(np.uint32), fresh.view(np.uint32))

    def test_n1200_peak_below_the_folded_stack(self):
        # the factors (36 MB), two Gram tiles (2.9 MB) and the median with its validation; the
        # folded stack alone is 72 MB
        w = self.instance(400)
        stack_bytes = 25 * 1200 * 1201 // 2 * 4
        tracemalloc.start()
        try:
            proto_similarity(w, ProtoConfig(3, 12, n_trials=25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack_bytes, f"peak {peak / stack_bytes:.2f} folded stacks"


#: one factor-path proto (60 columns), one folded-path proto (every column) and one rcur, whose
#: medians all come from factors; prints a hash of every median's bytes and of the labels
THREAD_SCRIPT = """
import hashlib
import numpy as np
from curcluster import pipeline, simgen
from curcluster.synth import random_union_model, sample_instance

digest = hashlib.sha256()
median_aggregate = simgen.median_aggregate
def recording(*args):
    sim = median_aggregate(*args)
    digest.update(sim.entries.tobytes())
    return sim
simgen.median_aggregate = recording
w = sample_instance(random_union_model(60, [4, 4, 4], seed=60), [100] * 3, 0.05, seed=61).data
assert pipeline._stores_factors(5, 60, 300) and not pipeline._stores_factors(5, 300, 300)
for cols in (60, 300):
    config = pipeline.ProtoConfig(3, 12, n_trials=5, cols_per_trial=cols)
    digest.update(pipeline.proto_cluster(w, config).labels.tobytes())
result = pipeline.rcur_cluster(w[:, ::2], 3, pipeline.RcurConfig(2, 6, 2.0, n_trials=10))
digest.update(result.labels.labels.tobytes())
print(digest.hexdigest())
"""


def test_same_bytes_under_one_and_two_blas_threads():
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", THREAD_SCRIPT], env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert digests[0] == digests[1]


class TestPinOnce:
    """Pinning the median's diagonal gives what pinning every trial's diagonal gave."""

    @pytest.mark.parametrize("n_trials", [7, 8])
    def test_matches_per_trial_pinning(self, monkeypatch, n_trials):
        model = random_union_model(40, [3, 3, 3], seed=70)
        w = sample_instance(model, [12, 12, 12], 0.05, seed=71).data
        cfg = ProtoConfig(m_subspaces=3, target_rank=9, n_trials=n_trials, seed=5)
        n = w.shape[1]
        trials = []
        seeds = range(cfg.seed, cfg.seed + n_trials)
        for _, rows, _, svd in cur._draws(w, cfg.target_rank, cfg.rows(), n, seeds):
            f = proto_factor(3)(w[rows], svd)  # float32, as the loop's Gram products
            trials.append(simgen.enforce_diagonal(f.T @ f))
        med = np.abs(np.median(np.array(trials), axis=0)).astype(np.float64)

        pins = []
        enforce_diagonal = simgen.enforce_diagonal
        monkeypatch.setattr(simgen, "enforce_diagonal",
                            lambda mat: pins.append(1) or enforce_diagonal(mat))
        np.testing.assert_array_equal(proto_similarity(w, cfg).entries, 0.5 * (med + med.T))
        assert len(pins) == 1


def proto_factor(m):
    """proto's per-trial factor, as `proto_similarity` builds it: Y = pinv(U) R, thresholded."""
    return lambda r_rows, svd: threshold(linalg._pinv_from_svd(*svd) @ r_rows, m)


def full_stack_median(w, rows, target_rank, seeds, factor):
    """The protocol before packing: a full k x n x n stack, its median, then 0.5 (med + med.T).

    `factor(R, svd)` maps a draw's rows and U's SVD to the trial's factor F.

    The stack holds the float32 Gram products the trial loop takes; the median is widened to
    float64, as the packed median is.
    """
    n = w.shape[1]
    stack = np.empty((len(seeds), n, n), dtype=np.float32)
    for i, (_, row_indices, _, svd) in enumerate(cur._draws(w, target_rank, rows, n, seeds)):
        y = factor(w[row_indices], svd).astype(np.float32)
        np.matmul(y.T, y, out=stack[i])
    med = np.abs(np.median(stack, axis=0)).astype(np.float64)
    return 0.5 * (med + med.T)


class TestGramExactlySymmetric:
    """The packed median rests on Y.T Y, written with out=, being symmetric bit for bit."""

    SHAPES = [(k, n) for k in (2, 12, 14) for n in (150, 300)] + [(150, 150)]
    TRANSFORMS = pytest.mark.parametrize("transform", [
        normalize_columns,
        lambda y: threshold(y, 3),
    ], ids=["normalize", "threshold"])

    @staticmethod
    def gram(k, n, transform, dtype):
        y = transform(np.random.default_rng(k * n).standard_normal((k, n))).astype(dtype)
        g = np.empty((n, n), dtype=dtype)
        np.matmul(y.T, y, out=g)
        return g

    @pytest.mark.parametrize("k, n", SHAPES)
    @TRANSFORMS
    def test_matmul_out_is_symmetric(self, k, n, transform):
        g = self.gram(k, n, transform, np.float64)
        assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("k, n", SHAPES + [(1200, 1200)])  # proto_n1200's Y is 1200 x 1200
    @TRANSFORMS
    def test_float32_matmul_out_is_symmetric(self, k, n, transform):
        # the trial loop takes its Gram products in float32
        g = self.gram(k, n, transform, np.float32)
        assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("product", [
        lambda a: simgen.gram_similarity(a, "absolute"),  # Y.T Y
        lambda a: simgen.sim_baseline(a, 12),  # V V.T
    ], ids=["gram", "baseline"])
    def test_library_products_are_symmetric(self, layout, product):
        # gram_similarity and sim_baseline do not re-symmetrize; a strided 12 x 300
        # Y.T @ Y is not exactly symmetric in numpy 2.4, so gram_similarity copies it first
        a = np.random.default_rng(12).standard_normal((24, 600))
        a = a[::2, ::2] if layout == "strided" else np.asarray(a[:12, :300], order=layout)
        entries = product(a).entries
        assert np.array_equal(entries, entries.T)


class TestPackedMatchesFullStack:
    """Medianing the upper triangles gives what the full stack and its symmetrization gave."""

    @pytest.mark.parametrize("n_trials", [7, 8])
    def test_proto(self, n_trials):
        model = random_union_model(40, [3, 3, 3], seed=70)
        w = sample_instance(model, [12, 12, 12], 0.05, seed=71).data
        cfg = ProtoConfig(m_subspaces=3, target_rank=9, n_trials=n_trials, seed=5)
        old = full_stack_median(w, cfg.rows(), cfg.target_rank,
                                range(cfg.seed, cfg.seed + n_trials), proto_factor(3))
        np.testing.assert_array_equal(proto_similarity(w, cfg).entries,
                                      simgen.enforce_diagonal(old))

    @pytest.mark.parametrize("n_trials", [7, 8])
    def test_rcur(self, monkeypatch, n_trials):
        model = random_union_model(40, [3, 3, 3], seed=72)
        w = sample_instance(model, [12, 12, 12], 0.05, seed=73).data
        cfg = RcurConfig(r_min=8, r_max=10, alpha=2.0, n_trials=n_trials, seed=3)
        medians = []
        median_aggregate = simgen.median_aggregate
        monkeypatch.setattr(simgen, "median_aggregate",
                            lambda stack: medians.append(median_aggregate(stack)) or medians[-1])
        rcur_cluster(w, 3, cfg)
        assert len(medians) == 3
        for r, sim in zip(range(8, 11), medians):
            # every rank medians the same draws of r_max = 10 rows: V.T's first r rows
            old = full_stack_median(w, 10, 10, range(cfg.seed, cfg.seed + n_trials),
                                    lambda r_rows, svd: normalize_columns(svd[2][:r]))
            # rcur powers the median's own matrix in place
            np.testing.assert_array_equal(sim.entries, old**cfg.alpha)


class TestFloat32RankCutoff:
    """pcc's rank cutoff (n * 2^-23 relative) sits at float32 resolution: a float32 median of
    rank below M gives pcc the coordinates, and so the labels or the error, of the float64
    median."""

    @staticmethod
    def medians(n, coords):
        # rank-2 data, two rows per trial: each factor is coords.T in the trial's own basis
        # of the row space (U_r is 2 x 2 orthogonal), so every trial has the Gram coords coords.T
        w = np.random.default_rng(90).standard_normal((20, 2)) @ np.ones((2, n))
        w[1] += np.arange(n)
        factors = [svd[0].T @ coords.T for _, _, _, svd in cur._draws(w, 2, 2, n, range(7))]
        float32 = simgen.median_aggregate(np.array(factors, dtype=np.float32))
        trials = [f.T @ f for f in factors]
        med = np.abs(np.median(trials, axis=0))
        return float32, simgen.SimilarityMatrix(entries=0.5 * (med + med.T))

    # at n = 30 the float32 median's third |lambda| is 1e-8 relative, above RANK_TOL * n
    # (3e-9) but below n * 2^-23 (3.6e-6); at 300 pcc's subspace iteration declines the
    # rank-2 matrix on both sides and eigh decides
    @pytest.mark.parametrize("n", [30, 90, 300])
    def test_rank_two_median_three_clusters(self, monkeypatch, n):
        # three blobs within 90 degrees of each other (so the Gram is nonnegative)
        rng = np.random.default_rng(n)
        angles = np.deg2rad(np.repeat([10.0, 45.0, 80.0], n // 3) + rng.uniform(-5, 5, n))
        coords = np.column_stack([np.cos(angles), np.sin(angles)]) * rng.uniform(1, 1.2, (n, 1))
        float32, reference = self.medians(n, coords)
        singulars = np.sort(np.abs(np.linalg.eigvalsh(reference.entries)))[::-1]
        assert singulars[2] <= linalg._rank_cutoff(singulars, (n, n))  # rank 2 < M = 3
        widths = []
        kmeans = cluster.kmeans
        monkeypatch.setattr(cluster, "kmeans",
                            lambda points, m, seed: widths.append(points.shape[1])
                            or kmeans(points, m, seed))
        labels = cluster.pcc_cluster(float32, 3, seed=0).labels
        np.testing.assert_array_equal(labels, cluster.pcc_cluster(reference, 3, seed=0).labels)
        np.testing.assert_array_equal(np.bincount(labels), [n // 3] * 3)
        assert widths == [2, 2]  # the float32 median's round-off coordinate is dropped

    def test_zero_median_same_error(self):
        float32, reference = self.medians(90, np.zeros((90, 2)))
        errors = []
        for sim in (float32, reference):
            with pytest.raises(ValueError) as info:
                cluster.pcc_cluster(sim, 3, seed=0)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


@pytest.fixture
def constructions(monkeypatch):
    """SimilarityMatrix constructions in order: "checked" where the n x n entries are validated,
    "unchecked" for the median, which is exactly symmetric and nonnegative as built."""
    calls = []
    post_init, unchecked = simgen.SimilarityMatrix.__post_init__, simgen.SimilarityMatrix._unchecked

    def counting(self):
        calls.append("checked")
        post_init(self)

    def counting_unchecked(entries):
        calls.append("unchecked")
        return unchecked(entries)

    monkeypatch.setattr(simgen.SimilarityMatrix, "__post_init__", counting)
    monkeypatch.setattr(simgen.SimilarityMatrix, "_unchecked", counting_unchecked)
    return calls


class TestOneSimilarityMatrix:
    """Each pipeline builds its similarity matrix once, and checks it unless the median built it."""

    def test_proto_pins_the_median_in_place(self, constructions, monkeypatch):
        medians = []
        median_aggregate = simgen.median_aggregate
        monkeypatch.setattr(simgen, "median_aggregate",
                            lambda *args: medians.append(median_aggregate(*args)) or medians[-1])
        w = sample_instance(random_union_model(30, [3, 3], seed=40), [10, 10], 0.01, seed=41).data
        sim = proto_similarity(w, ProtoConfig(m_subspaces=2, target_rank=6, n_trials=3))
        assert constructions == ["unchecked"]
        assert sim is medians[0]
        np.testing.assert_array_equal(np.diag(sim.entries), 1.0)

    def test_rcur_powers_the_median_in_place(self, constructions, monkeypatch):
        medians = []
        median_aggregate = simgen.median_aggregate
        monkeypatch.setattr(simgen, "median_aggregate",
                            lambda stack: medians.append(median_aggregate(stack)) or medians[-1])
        w = sample_instance(random_union_model(30, [3, 3], seed=40), [10, 10], 0.01, seed=41).data
        result = rcur_cluster(w, 2, RcurConfig(r_min=4, r_max=6, alpha=2.0, n_trials=3))
        assert len(medians) == len(result.ncut_per_rank) == 3
        assert constructions == ["unchecked"] * 3  # one per rank: the median's own matrix
        for sim, (_, ncut) in zip(medians, result.ncut_per_rank):
            # the powered median is the matrix that was clustered, with the config's seed, and scored
            assert ncut_value(sim, cluster.spectral_cluster(sim, 2, 0)) == ncut

    def test_cluster_noise_free(self, constructions):
        inst = union_instance(4)
        cluster_noise_free(inst.data)
        assert constructions == ["checked"]


@st.composite
def exact_instances(draw):
    """Noise-free union data: M in [1, 5] independent subspaces of dimension <= 4, n <= 62 points.

    A zero column (a component of its own) and a copy of the first column may be appended.
    Returns (W, the largest dimension, a permutation of the columns).
    """
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    points = [d + draw(st.integers(1, 12 - d)) for d in dims]
    seed = draw(st.integers(0, 2**16))
    model = random_union_model(sum(dims) + draw(st.integers(0, 8)), dims, seed)
    w = sample_instance(model, points, 0.0, seed + 1).data
    # a Gaussian map of the ambient space keeps the subspaces independent, not orthogonal
    w = np.random.default_rng(seed).standard_normal((w.shape[0],) * 2) @ w
    if draw(st.booleans()):
        w = np.column_stack([w, np.zeros(w.shape[0])])
    if draw(st.booleans()):
        w = np.column_stack([w, w[:, 0]])
    return w, max(dims), draw(st.permutations(range(w.shape[1])))


@st.composite
def near_rank_instances(draw):
    """Noise-free union data with n close to its rank: d + 1 or d + 2 points per d-dim subspace.

    M in [1, 4] subspaces of dimension 1-4, in an ambient space from their dimension sum (the
    subspaces fill it) up to 39.
    """
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    points = [d + draw(st.integers(1, 2)) for d in dims]
    seed = draw(st.integers(0, 2**16))
    model = random_union_model(draw(st.integers(sum(dims), 39)), dims, seed)
    return sample_instance(model, points, 0.0, seed + 1)


class TestExactPathProperties:
    """Invariances of `cluster_noise_free`, checked on drawn instances."""

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(near_rank_instances())
    def test_n_close_to_the_rank(self, instance):
        labels = cluster_noise_free(instance.data)
        assert labels.m_clusters == instance.model.n_subspaces
        assert clustering_error(labels, instance.truth) == 0.0

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(exact_instances())
    def test_matches_similarity_noise_free(self, instance):
        # the paper's (Y.T Y)^d, Y = pinv(W) W, has the same components at every power d
        w, d_max, _ = instance
        labels = cluster_noise_free(w).labels
        y = pinv(w) @ w
        for d in (1, d_max, 50):
            reference = cluster.connected_components(simgen.similarity_noise_free(y, d, "binary"))
            np.testing.assert_array_equal(labels, reference.labels)

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(exact_instances())
    def test_scale_invariant(self, instance):
        w, _, _ = instance
        labels = cluster_noise_free(w).labels
        for scale in (1e8, 1e-8):
            np.testing.assert_array_equal(cluster_noise_free(w * scale).labels, labels)

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(exact_instances())
    def test_column_permutation_equivariant(self, instance):
        w, _, perm = instance
        labels = cluster_noise_free(w)
        permuted = LabelVector(labels=labels.labels[list(perm)], m_clusters=labels.m_clusters)
        assert clustering_error(cluster_noise_free(w[:, perm]), permuted) == 0.0


class TestProtoProperties:
    """Invariances of `proto`, checked on drawn Case-2 instances at n = 150."""

    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.1])
    @settings(derandomize=True, database=None, max_examples=2, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_power_of_two_scale_invariant(self, sigma, seed):
        # W * 2^e has the same pinv(U) R, so the same similarity and labels, bit for bit
        model = random_union_model(300, synth.CASE_DIMS[2], seed)
        w = sample_instance(model, (50, 50, 50), sigma, seed + 1).data
        cfg = ProtoConfig(m_subspaces=3, target_rank=12, seed=seed % 7)
        entries = proto_similarity(w, cfg).entries
        labels = proto_cluster(w, cfg).labels
        for e in (-30, -1, 3, 40):
            scaled = w * 2.0**e
            np.testing.assert_array_equal(proto_similarity(scaled, cfg).entries.view(np.uint64),
                                          entries.view(np.uint64))
            np.testing.assert_array_equal(proto_cluster(scaled, cfg).labels, labels)


@st.composite
def rcur_draws(draw):
    """W of random rank, one zero and one duplicated column, n <= 60; r_max in [1, rank(W) + 1].

    W is a product of Gaussian factors, so it is well conditioned.  Near-rank-deficient W (such a
    product plus 1e-3 noise, r at its numerical rank) is left out: there Y = pinv(R) R is itself
    up to 4e-10 away from the projector a QR of R.T gives, so a 1e-12 comparison means nothing.
    """
    m, n = draw(st.integers(2, 40)), draw(st.integers(3, 60))
    rank = draw(st.integers(1, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    w = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    w[:, 0] = 0.0
    w[:, -1] = w[:, 1]
    return w, draw(st.integers(1, min(numerical_rank(w) + 1, m))), draw(st.integers(0, 2**16))


class TestRcurFactor:
    """Rank r's trial F, from the shared r_max-row draw, has the Gram of the normalized columns of
    the draw's rank-r Y = V_r V_r.T, for every r up to r_max, r above rank(W) included."""

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(rcur_draws())
    def test_matches_normalized_coefficient_gram(self, instance):
        w, r_max, seed = instance
        n = w.shape[1]
        factors = pipeline._rcur_factors(w, r_max, [seed])
        assert factors.shape == (1, r_max, n) and factors.dtype == np.float64
        rows = w[next(cur._draws(w, r_max, r_max, n, [seed]))[1]]
        medians = []  # each rank's float32 F and its median, as rcur_cluster takes them
        median_aggregate = simgen.median_aggregate
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simgen, "median_aggregate",
                          lambda f: medians.append((f, median_aggregate(f))) or medians[-1][1])
            patch.setattr(cluster, "spectral_cluster",
                          lambda sim, m, seed: LabelVector(np.zeros(n, dtype=int), 1))
            patch.setattr(cluster, "ncut_value", lambda sim, labels: 0.0)
            rcur_cluster(w, 1, RcurConfig(r_min=1, r_max=r_max, alpha=1.0, n_trials=1, seed=seed))
        assert [f.shape for f, _ in medians] == [(1, r, n) for r in range(1, r_max + 1)]
        for r, (f32, sim) in enumerate(medians, start=1):
            svd = linalg.skinny_svd(rows, r)
            # V_r V_r.T as V_r S_r^-1 U_r.T R, which keeps R's zero column exactly 0
            y = normalize_columns((svd.right / svd.singulars) @ (svd.left.T @ rows))
            f = normalize_columns(factors[0, :r])
            np.testing.assert_allclose(f.T @ f, y.T @ y, rtol=0, atol=1e-12)
            # the running column norms are np.linalg.norm's, bit for bit
            np.testing.assert_array_equal(f32[0].view(np.uint32),
                                          f.astype(np.float32).view(np.uint32))
            gram = np.abs(np.matmul(f32[0].T, f32[0])).astype(np.float64)  # one trial's median
            np.testing.assert_array_equal(sim.entries.view(np.uint64), gram.view(np.uint64))
            assert not sim.entries[0].any()  # the zero point keeps an exactly zero row, as in Y
