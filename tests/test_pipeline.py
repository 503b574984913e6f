import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from conftest import pack, union_instance
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
from curcluster.synth import random_union_model, sample_instance


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
        agg = median_aggregate(pack([single.entries]))
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
        sim = elementwise_power(median_aggregate(pack(trial_sims)), 2.0)
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
    """Count np.linalg.svd calls and row/column draws (`select_uniform`'s and `_sample`'s)."""
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
    """Each Gram product goes straight into the stack, which the median partitions in place."""

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
        # the stack, its index, Y and the threshold's scratch |Y|, masks: 2.75 n x n past the stack
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
        # past a float32 packed stack: its index, Y, the threshold's scratch |Y| and masks, 2.8
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


class TestPinOnce:
    """Pinning the median's diagonal gives what pinning every trial's diagonal gave."""

    @pytest.mark.parametrize("n_trials", [7, 8])
    def test_matches_per_trial_pinning(self, monkeypatch, n_trials):
        model = random_union_model(40, [3, 3, 3], seed=70)
        w = sample_instance(model, [12, 12, 12], 0.05, seed=71).data
        cfg = ProtoConfig(m_subspaces=3, target_rank=9, n_trials=n_trials, seed=5)
        n = w.shape[1]
        required = cur._required_rank(cfg.target_rank, cfg.rows(), n, numerical_rank(w))
        trials = []
        for seed in range(cfg.seed, cfg.seed + n_trials):
            rows, _, svd = cur._sample(w, cfg.rows(), n, required, seed)
            y = proto_factor(3)(w[rows], svd).astype(np.float32)  # the loop's float32 Grams
            trials.append(simgen.enforce_diagonal(y.T @ y))
        med = np.abs(np.median(np.array(trials), axis=0)).astype(np.float64)

        pins = []
        enforce_diagonal = simgen.enforce_diagonal
        monkeypatch.setattr(simgen, "enforce_diagonal",
                            lambda mat: pins.append(1) or enforce_diagonal(mat))
        np.testing.assert_array_equal(proto_similarity(w, cfg).entries, 0.5 * (med + med.T))
        assert len(pins) == 1


def proto_factor(m):
    """proto's per-trial factor, as `proto_similarity` builds it: Y = pinv(U) R, thresholded."""
    return lambda r_rows, svd: simgen.threshold_volumetric(linalg._pinv_from_svd(*svd) @ r_rows, m)


def full_stack_median(w, rows, target_rank, seeds, factor):
    """The protocol before packing: a full k x n x n stack, its median, then 0.5 (med + med.T).

    The stack holds the float32 Gram products the trial loop takes; the median is widened to
    float64, as the packed median is.
    """
    n = w.shape[1]
    required = cur._required_rank(target_rank, rows, n, numerical_rank(w))
    stack = np.empty((len(seeds), n, n), dtype=np.float32)
    for i, seed in enumerate(seeds):
        row_indices, _, svd = cur._sample(w, rows, n, required, seed)
        y = factor(w[row_indices], svd).astype(np.float32)
        np.matmul(y.T, y, out=stack[i])
    med = np.abs(np.median(stack, axis=0)).astype(np.float64)
    return 0.5 * (med + med.T)


class TestGramExactlySymmetric:
    """The packed median rests on Y.T Y, written with out=, being symmetric bit for bit."""

    SHAPES = [(k, n) for k in (2, 12, 14) for n in (150, 300)] + [(150, 150)]
    TRANSFORMS = pytest.mark.parametrize("transform", [
        normalize_columns,
        lambda y: simgen.threshold_volumetric(y, 3),
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
        for rank_index, (r, sim) in enumerate(zip(range(8, 11), medians)):
            rank_seed = cfg.seed + 1000 * rank_index
            old = full_stack_median(w, r, r, range(rank_seed, rank_seed + n_trials),
                                    pipeline._rcur_factor)
            # rcur powers the median's own matrix in place
            np.testing.assert_array_equal(sim.entries, old**cfg.alpha)


class TestFloat32RankCutoff:
    """pcc's rank cutoff (RANK_TOL * n relative) sits below float32 resolution: a float32 median
    of rank below M keeps pcc's labels, or its error, from the float64 median."""

    @staticmethod
    def medians(n, coords):
        # rank-2 data, two rows per trial: each factor is coords.T in the trial's own basis
        # of the row space (U_r is 2 x 2 orthogonal), so every trial has the Gram coords coords.T
        w = np.random.default_rng(90).standard_normal((20, 2)) @ np.ones((2, n))
        w[1] += np.arange(n)
        factor = lambda r_rows, svd: svd[0].T @ coords.T
        seeds = range(7)
        packed = pipeline._median_of_trials(w, 2, 2, n, 2, seeds, factor)
        trials = []
        for seed in seeds:
            _, _, svd = cur._sample(w, 2, n, 2, seed)
            f = factor(None, svd)
            trials.append(f.T @ f)
        med = np.abs(np.median(trials, axis=0))
        return packed, simgen.SimilarityMatrix(entries=0.5 * (med + med.T))

    # at n = 30 the float32 median's third |lambda| (1e-8 relative) passes the cutoff and
    # pcc takes a round-off coordinate; at 90 it does not; at 300 pcc's subspace iteration
    # declines the rank-2 matrix on both sides and eigh decides
    @pytest.mark.parametrize("n", [30, 90, 300])
    def test_rank_two_median_three_clusters(self, n):
        # three blobs within 90 degrees of each other (so the Gram is nonnegative)
        rng = np.random.default_rng(n)
        angles = np.deg2rad(np.repeat([10.0, 45.0, 80.0], n // 3) + rng.uniform(-5, 5, n))
        coords = np.column_stack([np.cos(angles), np.sin(angles)]) * rng.uniform(1, 1.2, (n, 1))
        packed, reference = self.medians(n, coords)
        singulars = np.sort(np.abs(np.linalg.eigvalsh(reference.entries)))[::-1]
        assert singulars[2] <= cluster._rank_cutoff(singulars, (n, n))  # rank 2 < M = 3
        labels = cluster.pcc_cluster(packed, 3, seed=0).labels
        np.testing.assert_array_equal(labels, cluster.pcc_cluster(reference, 3, seed=0).labels)
        np.testing.assert_array_equal(np.bincount(labels), [n // 3] * 3)

    def test_zero_median_same_error(self):
        packed, reference = self.medians(90, np.zeros((90, 2)))
        errors = []
        for sim in (packed, reference):
            with pytest.raises(ValueError) as info:
                cluster.pcc_cluster(sim, 3, seed=0)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


@pytest.fixture
def constructions(monkeypatch):
    """Count SimilarityMatrix constructions (each one validates its n x n entries)."""
    calls = []
    post_init = simgen.SimilarityMatrix.__post_init__

    def counting(self):
        calls.append(1)
        post_init(self)

    monkeypatch.setattr(simgen.SimilarityMatrix, "__post_init__", counting)
    return calls


class TestOneSimilarityMatrix:
    """Each pipeline builds and validates its similarity matrix once."""

    def test_proto_pins_the_median_in_place(self, constructions, monkeypatch):
        medians = []
        median_aggregate = simgen.median_aggregate
        monkeypatch.setattr(simgen, "median_aggregate",
                            lambda stack: medians.append(median_aggregate(stack)) or medians[-1])
        w = sample_instance(random_union_model(30, [3, 3], seed=40), [10, 10], 0.01, seed=41).data
        sim = proto_similarity(w, ProtoConfig(m_subspaces=2, target_rank=6, n_trials=3))
        assert len(constructions) == 1
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
        assert len(constructions) == 3  # one per rank: the median's own matrix
        for rank_index, (sim, (_, ncut)) in enumerate(zip(medians, result.ncut_per_rank)):
            # the powered median is the matrix that was clustered and scored
            assert ncut_value(sim, cluster.spectral_cluster(sim, 2, 1000 * rank_index)) == ncut

    def test_cluster_noise_free(self, constructions):
        inst = union_instance(4)
        cluster_noise_free(inst.data)
        assert len(constructions) == 1


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


class TestExactPathProperties:
    """Invariances of `cluster_noise_free`, checked on drawn instances."""

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


@st.composite
def rcur_draws(draw):
    """W of random rank, one zero and one duplicated column, n <= 60; r in [1, rank(W) + 1].

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
    """rcur's trial Gram from V.T's normalized columns is the Gram of Y = pinv(R) R's."""

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(rcur_draws())
    def test_matches_normalized_coefficient_gram(self, instance):
        w, r, seed = instance
        n = w.shape[1]
        required = cur._required_rank(r, r, n, numerical_rank(w))
        row_indices, _, svd = cur._sample(w, r, n, required, seed)
        rows = w[row_indices]
        y = normalize_columns(pinv(rows) @ rows)
        f = pipeline._rcur_factor(rows, svd)
        assert not f[:, 0].any()  # the zero point keeps an exactly zero column, as in Y
        np.testing.assert_allclose(f.T @ f, y.T @ y, rtol=0, atol=1e-12)
