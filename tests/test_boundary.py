"""The public boundary: every exported function or type that takes a matrix rejects NaN/Inf.

`as_matrix` runs where data enters the package; the per-trial kernels in
`curcluster.simgen` take trusted arrays and are not exported at the top
level.  Every name in `curcluster.__all__` is sorted below into exactly
one group, so a new export has to be placed (and, if it takes a matrix,
tested) here.
"""

import numpy as np
import pytest

import curcluster as cc

#: exported callables that take a matrix, each wrapped to take only it
TAKES_MATRIX = {
    "SimilarityMatrix": lambda a: cc.SimilarityMatrix(a, "absolute"),
    "cluster_noise_free": lambda a: cc.cluster_noise_free(a, 1),
    "coefficient_matrix": lambda a: cc.coefficient_matrix(
        cc.CurFactors(c=a, u=a, r=a, selection=cc.IndexSelection(np.arange(4), np.arange(4)))
    ),
    "cur_factorize": lambda a: cc.cur_factorize(
        a, cc.IndexSelection(np.array([0]), np.array([0]))
    ),
    "cur_sample": lambda a: cc.cur_sample(a, 1, 1, 0),
    "gram_similarity": lambda a: cc.gram_similarity(a, "absolute"),
    "kmeans": lambda a: cc.kmeans(a, 1, 0),
    "matrix_power": lambda a: cc.matrix_power(a, 2),
    "nuclear_norm": cc.nuclear_norm,
    "numerical_rank": cc.numerical_rank,
    "pinv": cc.pinv,
    "proto_cluster": lambda a: cc.proto_cluster(a, cc.ProtoConfig(m_subspaces=1, target_rank=1)),
    "rcur_cluster": lambda a: cc.rcur_cluster(a, 1, cc.RcurConfig(r_min=1, r_max=1, alpha=1.0)),
    "sim_baseline": lambda a: cc.sim_baseline(a, 1),
    "similarity_noise_free": lambda a: cc.similarity_noise_free(a, 1, "absolute"),
    "skinny_svd": lambda a: cc.skinny_svd(a, 1),
}

#: take a SimilarityMatrix, whose construction validates the entries
TAKES_SIMILARITY = {"connected_components", "ncut_value", "pcc_cluster", "spectral_cluster"}

#: result types the library fills from validated arrays; they check nothing
RESULT_TYPES = {"CurFactors", "LabelVector", "RcurResult", "SvdTriple", "SyntheticInstance",
                "UnionModel"}

#: take no matrix
OTHER = {"IndexSelection", "ProtoConfig", "RankDeficientSelection", "RcurConfig",
         "SelectionFailed", "clustering_error", "random_union_model", "run_sweep",
         "sample_instance", "select_uniform"}

KERNELS = ("threshold_volumetric", "normalize_columns", "enforce_diagonal",
           "median_aggregate", "elementwise_power")


def test_every_export_is_classified():
    groups = [set(TAKES_MATRIX), TAKES_SIMILARITY, RESULT_TYPES, OTHER]
    assert sum(len(g) for g in groups) == len(set().union(*groups))
    assert set(cc.__all__) == set().union(*groups)
    assert all(hasattr(cc, name) for name in cc.__all__)


def test_kernels_stay_in_simgen():
    assert not any(hasattr(cc, name) for name in KERNELS)
    assert all(callable(getattr(cc.simgen, name)) for name in KERNELS)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", sorted(TAKES_MATRIX))
def test_rejects_non_finite(name, bad):
    a = np.eye(4)
    a[1, 2] = a[2, 1] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        TAKES_MATRIX[name](a)
