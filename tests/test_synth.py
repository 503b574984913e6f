import itertools

import numpy as np
import pytest

from curcluster.linalg import numerical_rank
from curcluster.pipeline import ProtoConfig, cluster_noise_free
from curcluster.cluster import clustering_error
from curcluster.synth import (
    CASE_DIMS,
    SIGMA_SWEEP,
    is_independent,
    random_union_model,
    run_sweep,
    sample_instance,
)


class TestRandomUnionModel:
    def test_case_dims(self):
        model = random_union_model(300, (4, 4), seed=0)
        stacked = model.stacked_basis()
        assert stacked.shape == (300, 8)
        np.testing.assert_allclose(stacked.T @ stacked, np.eye(8), atol=1e-12)

    def test_one_dim_in_one_dim(self):
        model = random_union_model(1, (1,), seed=0)
        assert abs(abs(model.bases[0][0, 0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_gram_identity(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(5, 40))
        dims = [int(d) for d in rng.integers(1, 4, rng.integers(1, 4))]
        while sum(dims) > m:
            dims = dims[:-1]
        model = random_union_model(m, dims, seed)
        stacked = model.stacked_basis()
        np.testing.assert_allclose(
            stacked.T @ stacked, np.eye(sum(dims)), atol=1e-12
        )
        assert is_independent(model)

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            random_union_model(5, (3, 3), seed=0)

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            random_union_model(5, (0, 2), seed=0)

    def test_deterministic(self):
        a = random_union_model(20, (2, 3), seed=9)
        b = random_union_model(20, (2, 3), seed=9)
        np.testing.assert_array_equal(a.stacked_basis(), b.stacked_basis())


class TestSampleInstance:
    def test_shapes_and_labels(self):
        model = random_union_model(300, (4, 4), seed=0)
        inst = sample_instance(model, (50, 50), 0.0, seed=1)
        assert inst.data.shape == (300, 100)
        assert inst.truth.labels.shape == (100,)
        assert set(inst.truth.labels.tolist()) == {0, 1}

    def test_sigma_zero_columns_in_subspace(self):
        model = random_union_model(30, (3, 2), seed=2)
        inst = sample_instance(model, (8, 8), 0.0, seed=3)
        for j in range(inst.data.shape[1]):
            basis = model.bases[inst.truth.labels[j]]
            col = inst.data[:, j]
            resid = col - basis @ (basis.T @ col)
            assert np.linalg.norm(resid) <= 1e-12

    def test_unit_ball_coefficients(self):
        model = random_union_model(20, (4,), seed=4)
        inst = sample_instance(model, (200,), 0.0, seed=5)
        # basis is orthonormal, so the coefficient norm equals the column norm
        norms = np.linalg.norm(inst.data, axis=0)
        assert np.all(norms <= 1.0 + 1e-12)

    def test_noise_standard_deviation(self):
        model = random_union_model(500, (4,), seed=6)
        clean = sample_instance(model, (200,), 0.0, seed=7)
        noisy = sample_instance(model, (200,), 0.1, seed=7)
        noise = (noisy.data - clean.data).ravel()  # 10^5 pooled samples
        assert noise.size == 100_000
        assert abs(noise.std() - 0.1) <= 0.001

    def test_rejects_too_few_points(self):
        model = random_union_model(10, (3,), seed=0)
        with pytest.raises(ValueError):
            sample_instance(model, (3,), 0.0, seed=0)

    def test_rejects_length_mismatch(self):
        model = random_union_model(10, (2, 2), seed=0)
        with pytest.raises(ValueError):
            sample_instance(model, (5,), 0.0, seed=0)

    def test_shuffle_preserves_pairing(self):
        model = random_union_model(15, (2, 2), seed=8)
        plain = sample_instance(model, (6, 6), 0.0, seed=9)
        mixed = sample_instance(model, (6, 6), 0.0, seed=9, shuffle=True)
        # same multiset of (column, label) pairs in a different order
        assert sorted(mixed.truth.labels.tolist()) == sorted(plain.truth.labels.tolist())
        for j in range(mixed.data.shape[1]):
            basis = model.bases[mixed.truth.labels[j]]
            col = mixed.data[:, j]
            assert np.linalg.norm(col - basis @ (basis.T @ col)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_genericity_exhaustive_small(self, seed):
        # every d-subset of a subspace's points spans the subspace
        rng = np.random.default_rng(seed)
        dims = [int(d) for d in rng.integers(1, 4, 2)]
        model = random_union_model(12, dims, seed)
        counts = [min(d + 3, 8) for d in dims]
        inst = sample_instance(model, counts, 0.0, seed + 1)
        offset = 0
        for d, c in zip(dims, counts):
            block = inst.data[:, offset : offset + c]
            for subset in itertools.combinations(range(c), d):
                assert numerical_rank(block[:, subset]) == d
            offset += c

    def test_noise_free_clustering_round_trip(self):
        model = random_union_model(30, (3, 2, 4), seed=11)
        inst = sample_instance(model, (7, 6, 8), 0.0, seed=12)
        labels = cluster_noise_free(inst.data)
        assert clustering_error(labels, inst.truth) == 0.0


class TestRunSweep:
    def test_sigma_zero_all_errors_vanish(self):
        cfg = ProtoConfig(m_subspaces=2, target_rank=4, n_trials=3)
        records = run_sweep(
            (2, 2), (0.0,), 3, cfg, seed=0, ambient_dim=20, points_per_subspace=6
        )
        assert len(records) == 1
        rec = records[0]
        assert rec["sigma"] == 0.0
        assert rec["mean_err"] == 0.0
        assert rec["max_err"] == 0.0
        assert rec["n_instances"] == 3

    def test_record_fields_consistent(self):
        cfg = ProtoConfig(m_subspaces=2, target_rank=4, n_trials=3)
        records = run_sweep(
            (2, 2), (0.0, 0.05), 4, cfg, seed=1, ambient_dim=20, points_per_subspace=6
        )
        assert [r["sigma"] for r in records] == [0.0, 0.05]
        for rec in records:
            errs = np.asarray(rec["errors"])
            assert errs.size == 4
            assert rec["mean_err"] == pytest.approx(errs.mean())
            assert rec["median_err"] == pytest.approx(np.median(errs))
            assert rec["min_err"] == errs.min()
            assert rec["max_err"] == errs.max()

    def test_rejects_zero_instances(self):
        cfg = ProtoConfig(m_subspaces=2, target_rank=4)
        with pytest.raises(ValueError):
            run_sweep((2, 2), (0.0,), 0, cfg, seed=0)

    def test_reference_constants(self):
        assert SIGMA_SWEEP == (0.000, 0.001, 0.010, 0.030, 0.050, 0.075, 0.10)
        assert CASE_DIMS[1] == (4, 4)
        assert CASE_DIMS[2] == (4, 4, 4)
