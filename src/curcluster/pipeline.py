"""End-to-end subspace clustering pipelines.

Three paths are provided: the exact noise-free construction (components of
the full selection's shape-interaction pattern), the noisy multi-trial
median pipeline over random CUR approximations, and the rank-sweep
variant that picks the rank minimizing the Ncut value of the resulting
spectral partition.  One function medians the noisy pipelines' Gram
matrices, which generators yield; the rank sweep's ranks share its draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cluster as _cluster
from . import simgen
from .cluster import LabelVector
from .cur import _required_rank, _sample
from .linalg import _pinv_from_svd, as_matrix, numerical_rank

BACKENDS = ("pcc", "spectral", "kmeans")


@dataclass(frozen=True)
class ProtoConfig:
    """Parameters of the noisy multi-trial median pipeline."""

    m_subspaces: int
    target_rank: int
    n_trials: int = 25
    rows_per_trial: int | None = None  # defaults to target_rank
    cols_per_trial: int | str = "all"
    backend: str = "pcc"
    seed: int = 0

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.m_subspaces < 1:
            raise ValueError("m_subspaces must be >= 1")
        if self.target_rank < self.m_subspaces:
            raise ValueError(
                "target_rank must be >= m_subspaces (each subspace is nontrivial)"
            )
        rows = self.rows()
        if rows < self.target_rank:
            raise ValueError("rows_per_trial must be >= target_rank")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")

    def rows(self) -> int:
        return self.target_rank if self.rows_per_trial is None else self.rows_per_trial

    def cols(self, n: int) -> int:
        return n if self.cols_per_trial == "all" else int(self.cols_per_trial)


@dataclass(frozen=True)
class RcurConfig:
    """Parameters of the rank-sweep pipeline."""

    r_min: int
    r_max: int
    alpha: float
    n_trials: int = 50
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.r_min <= self.r_max:
            raise ValueError(f"need 1 <= r_min <= r_max, got [{self.r_min}, {self.r_max}]")
        if not 0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")


@dataclass(frozen=True)
class RcurResult:
    labels: LabelVector
    r_best: int
    ncut_per_rank: list = field(default_factory=list)


def _run_backend(backend: str, sim: simgen.SimilarityMatrix, m: int, seed: int) -> LabelVector:
    if backend == "pcc":
        return _cluster.pcc_cluster(sim, m, seed)
    if backend == "spectral":
        return _cluster.spectral_cluster(sim, m, seed)
    if backend == "kmeans":
        return _cluster.kmeans(sim.entries, m, seed)
    raise ValueError(f"unknown backend {backend!r}")


def cluster_noise_free(w) -> LabelVector:
    """Exact clustering of noise-free union data: the components of Y = pinv(W) W's 0/1 pattern.

    With the full selection (C = R = U = W), Y = V V.T is the shape-interaction matrix that
    `simgen.sim_baseline` builds, validating `w`, from W's SVD cut to its rank.  The paper's
    (Y.T Y)^d_max (`similarity_noise_free`) has these components for any d_max: Y.T Y = Y, and
    each edge of a Gram pattern has an endpoint with a self-loop, so powering joins no two.
    """
    return _cluster.connected_components(simgen.sim_baseline(w, min(np.shape(w))))


def _median_of_grams(grams, n_trials: int, n: int) -> simgen.SimilarityMatrix:
    """Median of `n_trials` symmetric float32 n x n Gram matrices, upper triangles in one stack.

    `grams` yields each trial's F.T F, written with `out=` (numpy's syrk path, so exactly
    symmetric), into a workspace that the generator may reuse.  The stack and the Gram
    products are float32, the median float64.  A float32 inner product of length n errs by at
    most about n * 6e-8 * |f|.T |f| (Higham 2002, ch. 3): 7e-5 relative at n = 1200 in the worst
    case, far below the noise level at which the trials' median varies.  Each Gram matrix's upper
    triangle is folded into its row of the stack (`simgen.FoldedLayout`: three block copies, no
    index).  The generator runs to its end and the last Gram matrix, a view of its workspace, is
    dropped before the median, which partitions the stack in place.
    """
    # the stack first, so that it can take the heap hole the previous call's stack left
    stack = np.empty((n_trials, n * (n + 1) // 2), dtype=np.float32)
    layout = simgen.FoldedLayout(n)
    for row, gram in zip(stack, grams, strict=True):
        layout.fold(gram, row)
    del layout, gram
    return simgen.median_aggregate(stack)


def _proto_grams(w, draws, m_subspaces: int, k: int):
    """proto's trial Gram matrices, one per draw of `w`, in one workspace allocated once.

    Each draw is `cur._sample`'s (rows, columns, U's SVD) with k columns.  One buffer of
    max(8kn, 4kn + 4n^2) bytes holds everything.  Its first 8kn bytes take Y = pinv(U) R (k x n
    float64), written once by `np.matmul(..., out=)`.  `simgen.threshold_volumetric` (looked up
    at call time) rounds Y in place to F (k x n float32) over the first 4kn bytes and finds its
    cut in the next 4kn, and F.T F (n x n float32) goes into the bytes after F.  The workspace is
    8n^2 bytes at proto's default k = n (11.5 MB at n = 1200).
    """
    n = w.shape[1]
    buffer = np.empty(max(k * n, (k * n + n * n + 1) // 2))
    y = buffer[: k * n].reshape(k, n)
    gram = buffer.view(np.float32)[k * n : k * n + n * n].reshape(n, n)
    for rows, _, svd in draws:
        np.matmul(_pinv_from_svd(*svd), w[rows], out=y)
        f = simgen.threshold_volumetric(y, m_subspaces)
        yield np.matmul(f.T, f, out=gram)


def _rcur_factors(w, r_max: int, seeds) -> list:
    """V.T of one draw of r_max rows R = U S V.T per seed, cut to rank(R); R's zero columns stay 0.

    With every column, U = R and Y = pinv(R) R = V V.T: column j has V.T's column norm, and V.T's
    first r rows give rank r's Y for every r (Eckart and Young 1936).  Y is exactly 0 where R is,
    but the SVD leaves up to 8e-14 there, which `simgen.normalize_columns` would scale up.
    """
    n = w.shape[1]
    required = _required_rank(r_max, r_max, n, numerical_rank(w))
    draws = [_sample(w, r_max, n, required, seed) for seed in seeds]
    return [np.where(w[rows].any(axis=0), svd[2], 0.0) for rows, _, svd in draws]


def _rcur_grams(factors, r: int, n: int):
    """rcur's rank-r trial Gram matrices, of each factor's first r rows normalized, in one buffer."""
    gram = np.empty((n, n), dtype=np.float32)
    for vt in factors:
        f = simgen.normalize_columns(vt[:r]).astype(np.float32)  # r x n: the product is n r n
        yield np.matmul(f.T, f, out=gram)


def proto_similarity(w, config: ProtoConfig) -> simgen.SimilarityMatrix:
    """Median of n_trials thresholded CUR similarity matrices of `w`, its diagonal pinned to 1."""
    w = as_matrix(w)
    if config.target_rank > min(w.shape):
        raise ValueError("target_rank exceeds min(m, n)")
    n = w.shape[1]
    rows, cols = config.rows(), config.cols(n)
    required = _required_rank(config.target_rank, rows, cols, numerical_rank(w))
    draws = (_sample(w, rows, cols, required, seed)
             for seed in range(config.seed, config.seed + config.n_trials))
    sim = _median_of_grams(_proto_grams(w, draws, config.m_subspaces, cols), config.n_trials, n)
    simgen.enforce_diagonal(sim.entries)  # in place; still symmetric and nonnegative
    return sim


def proto_cluster(w, config: ProtoConfig) -> LabelVector:
    """Noisy-path clustering: median similarity over random CUR trials.

    Each trial draws a random rank-sufficient selection, thresholds the
    coefficient matrix Y volumetrically and forms Y.T Y; the entrywise median
    of the trials, its diagonal pinned to 1, goes to the configured clustering
    back-end.  Deterministic given config.seed.
    """
    sim = proto_similarity(w, config)
    return _run_backend(config.backend, sim, config.m_subspaces, config.seed)


def rcur_cluster(w, m_subspaces: int, config: RcurConfig) -> RcurResult:
    """Rank-sweep clustering; keeps the rank minimizing the Ncut value.

    Each of n_trials CUR draws takes r_max rows, every column and one SVD (`_rcur_factors`).  For
    each rank r in [r_min, r_max], the median of the trials' Gram matrices of V.T's first r rows,
    column-normalized, is raised elementwise to alpha in place and clustered spectrally with
    config.seed, so rank r's result depends on r_max, not on r_min.  Ncut is scored on the
    powered matrix that was clustered; ties go to the smaller rank.
    """
    w = as_matrix(w)
    m, n = w.shape
    if config.r_max > min(m, n):
        raise ValueError(f"r_max={config.r_max} exceeds min(m, n)={min(m, n)}")
    factors = _rcur_factors(w, config.r_max, range(config.seed, config.seed + config.n_trials))
    best = None
    ncut_per_rank = []
    for r in range(config.r_min, config.r_max + 1):
        sim = _median_of_grams(_rcur_grams(factors, r, n), config.n_trials, n)
        simgen.elementwise_power(sim, config.alpha)  # in place; still symmetric and nonnegative
        labels = _cluster.spectral_cluster(sim, m_subspaces, config.seed)
        ncut = _cluster.ncut_value(sim, labels)
        ncut_per_rank.append((r, ncut))
        if best is None or ncut < best[1]:
            best = (r, ncut, labels)
    return RcurResult(labels=best[2], r_best=best[0], ncut_per_rank=ncut_per_rank)
