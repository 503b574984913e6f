"""Subspace clustering via exact and randomized CUR (skeleton) decompositions.

`__all__` is the public boundary, where matrix inputs are validated; the
per-trial kernels take trusted arrays and stay in `curcluster.simgen`.
"""

from .cluster import (
    LabelVector,
    clustering_error,
    connected_components,
    kmeans,
    ncut_value,
    pcc_cluster,
    spectral_cluster,
)
from .cur import (
    CurFactors,
    IndexSelection,
    RankDeficientSelection,
    SelectionFailed,
    cur_factorize,
    cur_sample,
    select_uniform,
)
from .linalg import (
    SvdTriple,
    matrix_power,
    nuclear_norm,
    numerical_rank,
    pinv,
    skinny_svd,
)
from .pipeline import (
    ProtoConfig,
    RcurConfig,
    RcurResult,
    cluster_noise_free,
    proto_cluster,
    rcur_cluster,
)
from .simgen import (
    SimilarityMatrix,
    coefficient_matrix,
    gram_similarity,
    sim_baseline,
    similarity_noise_free,
)
from .synth import (
    SyntheticInstance,
    UnionModel,
    random_union_model,
    run_sweep,
    sample_instance,
)

__all__ = [
    "CurFactors", "IndexSelection", "LabelVector", "ProtoConfig",
    "RankDeficientSelection", "RcurConfig", "RcurResult", "SelectionFailed",
    "SimilarityMatrix", "SvdTriple", "SyntheticInstance", "UnionModel",
    "cluster_noise_free", "clustering_error", "coefficient_matrix",
    "connected_components", "cur_factorize", "cur_sample", "gram_similarity",
    "kmeans", "matrix_power", "ncut_value", "nuclear_norm", "numerical_rank",
    "pcc_cluster", "pinv", "proto_cluster", "random_union_model", "rcur_cluster",
    "run_sweep", "sample_instance", "select_uniform", "sim_baseline",
    "similarity_noise_free", "skinny_svd", "spectral_cluster",
]

__version__ = "0.1.0"
