"""End-to-end subspace clustering pipelines.

Three paths are provided: the exact noise-free construction (components of
the full selection's shape-interaction pattern), the noisy multi-trial
median pipeline over random CUR approximations, and the rank-sweep
variant that picks the rank minimizing the Ncut value of the resulting
spectral partition.
"""

from __future__ import annotations

import functools
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


def _rcur_factor(r_rows, svd):
    """rcur's trial factor: V.T = S^-1 U.T R normalized (U = R; Y = V V.T has its column norms)."""
    return simgen.normalize_columns((svd[0] / svd[1]).T @ r_rows)  # zero columns of R stay 0


def _median_of_trials(w, rank_w, rows, cols, target_rank, seeds, make_trial):
    """Median of the trials' Gram matrices, upper triangles packed in one float32 stack.

    `make_trial()` allocates the call's workspace and returns the trial function, which maps a
    draw's rows R and U's SVD to the trial's float32 n x n Gram matrix F.T F, written with
    `out=` (numpy's syrk path, so exactly symmetric) into a buffer it reuses.  The stack and
    the Gram products are float32, the median float64.  A float32 inner product of length n
    errs by at most about n * 6e-8 * |f|.T |f| (Higham 2002, ch. 3): 7e-5 relative at n = 1200
    in the worst case, far below the noise level at which the trials' median varies.  Each
    trial's upper triangle is gathered into its row of the stack; the index and the workspace
    go before the median, which partitions the stack in place.
    """
    required = _required_rank(target_rank, rows, cols, rank_w)
    n = w.shape[1]
    # the stack first, so that it can take the heap hole the previous call's stack left
    stack = np.empty((len(seeds), n * (n + 1) // 2), dtype=np.float32)
    upper = simgen.upper_triangle(n)
    trial = make_trial()
    for i, seed in enumerate(seeds):
        row_indices, _, svd = _sample(w, rows, cols, required, seed)
        # indices in range; mode "raise" would buffer `out`
        np.take(trial(w[row_indices], svd), upper, out=stack[i], mode="clip")
    del upper, trial
    return simgen.median_aggregate(stack)


def _factor_grams(factor, n):
    """Trial function: F = factor(R, svd) in float32, its Gram matrix in one n x n buffer."""
    gram = np.empty((n, n), dtype=np.float32)

    def trial(r_rows, svd):
        f = factor(r_rows, svd).astype(np.float32)
        return np.matmul(f.T, f, out=gram)

    return trial


def _proto_grams(m_subspaces, k, n):
    """proto's trial function and its workspace, allocated once: no n x n array per trial.

    The trial writes Y = pinv(U) R (k x n float64) into a buffer of max(8kn, 4n^2) bytes,
    thresholds it with `simgen.threshold_volumetric` (looked up at call time), whose float32 F
    and keep mask land in the bytes of its k x n float64 scratch |Y|, and writes F.T F (n x n
    float32) over Y's bytes.  F's lifetime begins after |Y|'s ends, and the Gram matrix's after
    Y's, so each pair shares its bytes: the workspace is max(8kn, 4n^2) + 8kn bytes, 16n^2 at
    proto's default k = n (23 MB at n = 1200).
    """
    buffer = np.empty(max(k * n, (n * n + 1) // 2))
    y = buffer[: k * n].reshape(k, n)
    gram = buffer.view(np.float32)[: n * n].reshape(n, n)
    scratch = np.empty((k, n))

    def trial(r_rows, svd):
        np.matmul(_pinv_from_svd(*svd), r_rows, out=y)
        f = simgen.threshold_volumetric(y, m_subspaces, scratch)
        return np.matmul(f.T, f, out=gram)

    return trial


def proto_similarity(w, config: ProtoConfig) -> simgen.SimilarityMatrix:
    """Median of n_trials thresholded CUR similarity matrices of `w`, its diagonal pinned to 1."""
    w = as_matrix(w)
    if config.target_rank > min(w.shape):
        raise ValueError("target_rank exceeds min(m, n)")
    n = w.shape[1]
    cols = config.cols(n)
    seeds = range(config.seed, config.seed + config.n_trials)
    sim = _median_of_trials(w, numerical_rank(w), config.rows(), cols, config.target_rank, seeds,
                            functools.partial(_proto_grams, config.m_subspaces, cols, n))
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

    For each rank r in [r_min, r_max], medians n_trials CUR draws with all
    columns and r rows, each the Gram matrix of V.T's normalized columns
    (U = R, so Y = pinv(R) R = V V.T has V.T's column norms), raises the
    median elementwise to alpha in place and clusters spectrally.  Ncut is
    scored on the powered matrix that was clustered; ties go to the smaller rank.
    """
    w = as_matrix(w)
    m, n = w.shape
    if config.r_max > min(m, n):
        raise ValueError(f"r_max={config.r_max} exceeds min(m, n)={min(m, n)}")
    rank_w = numerical_rank(w)
    best = None
    ncut_per_rank = []
    for rank_index, r in enumerate(range(config.r_min, config.r_max + 1)):
        rank_seed = config.seed + 1000 * rank_index
        seeds = range(rank_seed, rank_seed + config.n_trials)
        sim = _median_of_trials(w, rank_w, r, n, r, seeds,
                                functools.partial(_factor_grams, _rcur_factor, n))
        simgen.elementwise_power(sim, config.alpha)  # in place; still symmetric and nonnegative
        labels = _cluster.spectral_cluster(sim, m_subspaces, rank_seed)
        ncut = _cluster.ncut_value(sim, labels)
        ncut_per_rank.append((r, ncut))
        if best is None or ncut < best[1]:
            best = (r, ncut, labels)
    return RcurResult(labels=best[2], r_best=best[0], ncut_per_rank=ncut_per_rank)
