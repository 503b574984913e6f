"""End-to-end subspace clustering pipelines.

Three paths are provided: the exact noise-free construction (components of
the full selection's shape-interaction pattern), the noisy multi-trial
median pipeline over random CUR approximations, and the rank-sweep
variant that picks the rank minimizing the Ncut value of the resulting
spectral partition.  `simgen.median_aggregate` medians the noisy
pipelines' Gram matrices from their trials' stored factors, one tile at a
time; below a size that arithmetic sets, the median pipeline copies each
trial's Gram matrix into a stack instead, block by block in the order the
median walks it.  The rank sweep's ranks share its draws.  Both noisy
pipelines take their draws from one generator, `cur._draws`, which hands
each trial its U's SVD and the rank the trial needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cluster as _cluster
from . import simgen
from .cluster import LabelVector
from .cur import _draws
from .linalg import _pinv_from_svd, as_matrix

BACKENDS = ("pcc", "spectral", "kmeans")


@dataclass(frozen=True)
class ProtoConfig:
    """Parameters of the noisy multi-trial median pipeline."""

    m_subspaces: int
    target_rank: int
    n_trials: int = 25
    rows_per_trial: int | None = None  # defaults to target_rank
    cols_per_trial: int | None = None  # defaults to min(n, 24 * target_rank)
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
        if self.cols_per_trial is not None and self.cols_per_trial < self.target_rank:
            raise ValueError("cols_per_trial must be >= target_rank")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")

    def rows(self) -> int:
        return self.target_rank if self.rows_per_trial is None else self.rows_per_trial

    def cols(self, n: int) -> int:
        return min(n, 24 * self.target_rank) if self.cols_per_trial is None else self.cols_per_trial


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


def _proto_factor(w, draw, m_subspaces: int, y: np.ndarray) -> np.ndarray:
    """proto's trial factor F of one draw of `w`: Y = pinv(U) R written into `y`, thresholded.

    `draw` is `cur._draws`' (rank, rows, columns, U's SVD) with k columns, and `y` a
    C-contiguous k x n float64 array.  The SVD is cut to the draw's required `rank`, U's best
    rank-`rank` approximation (Eckart and Young 1936), so that s rows beyond the target rank
    estimate a rank-`rank` row space; at s = rank the cut changes nothing.
    `simgen.threshold_volumetric` (looked up at call time) rounds Y in place to F (k x n
    float32) over `y`'s first 4kn bytes and finds its cut in the next 4kn.
    """
    rank, rows, _, (u, s, vt) = draw
    np.matmul(_pinv_from_svd(u[:, :rank], s[:rank], vt[:rank]), w[rows], out=y)
    return simgen.threshold_volumetric(y, m_subspaces)


def _proto_stack(w, draws, m_subspaces: int, k: int, n_trials: int) -> np.ndarray:
    """proto's n_trials trial Gram matrices F.T F, folded into one float32 stack.

    Row i holds trial i's F.T F block by block, in the order `simgen.median_aggregate` walks it
    (`simgen.fold`).  One workspace of max(8kn, 4kn + 4n^2) bytes serves every trial: its first
    8kn bytes take Y and then F (`_proto_factor`), and F.T F (n x n float32, numpy's syrk path,
    so exactly symmetric) goes into the bytes after F.  It is freed on return, before the
    median's peak.  A float32 product errs by at most about n * 6e-8 * |f|.T |f| (Higham 2002,
    ch. 3): 7e-5 relative at n = 1200, far below the noise level at which the trials' median
    varies.
    """
    n = w.shape[1]
    # the stack first, so that it can take the heap hole the previous call's stack left
    stack = np.empty((n_trials, simgen._row_length(n)), dtype=np.float32)
    buffer = np.empty(max(k * n, (k * n + n * n + 1) // 2))
    y = buffer[: k * n].reshape(k, n)
    gram = buffer.view(np.float32)[k * n : k * n + n * n].reshape(n, n)
    for row, draw in zip(stack, draws, strict=True):
        f = _proto_factor(w, draw, m_subspaces, y)
        simgen.fold(np.matmul(f.T, f, out=gram), row)
    return stack


def _proto_factors(w, draws, m_subspaces: int, k: int, n_trials: int) -> np.ndarray:
    """proto's n_trials trial factors F (k x n float32 each), as one (n_trials, k, n) view.

    One buffer holds n_trials + 1 slots of kn float32 entries, kn rounded up to even so that
    every slot starts on a float64 boundary.  Trial i writes Y (k x n float64) over slots i and
    i + 1, and the threshold leaves F in slot i and spends the rest, which the next trial's Y
    overwrites: the factors need no Y workspace beside them.
    """
    n = w.shape[1]
    stride = k * n + k * n % 2
    slots = np.empty((n_trials + 1) * stride // 2).view(np.float32)
    for i, draw in enumerate(draws):
        y = slots[i * stride : i * stride + 2 * k * n].view(np.float64).reshape(k, n)
        _proto_factor(w, draw, m_subspaces, y)
    return slots.reshape(n_trials + 1, stride)[:n_trials, : k * n].reshape(n_trials, k, n)


def _stores_factors(n_trials: int, k: int, n: int) -> bool:
    """Whether proto's median comes from its trials' stored factors rather than a folded stack.

    Each path's peak in bytes, counting what is alive at once.  The factors' n_trials + 1 slots
    and one (n_trials, b, b) float32 tile buffer of `simgen.median_aggregate` live beside the
    float64 n x n median.  The folded stack, n_trials rows of `simgen._row_length(n)` float32
    entries, lives beside `_proto_stack`'s workspace and then beside the median, which is built
    after the workspace is freed.  The factors win at proto's default k = min(n, 24 r) for large
    n (48.9 against 85.3 MB at n = 1200, 25 trials), and lose at k = n and for small n, where
    the tiles are as large as the matrices (22.3 against 21.8 MB at n = 600).
    """
    b = simgen._tile_width(n)
    factors = (n_trials + 1) * k * n * 4 + n_trials * b * b * 4 + 8 * n * n
    stack = n_trials * simgen._row_length(n) * 4
    folded = stack + max(8 * k * n, 4 * k * n + 4 * n * n, 8 * n * n)
    return factors <= folded


def _rcur_factors(w, r_max: int, seeds) -> np.ndarray:
    """V.T of one draw of r_max rows R = U S V.T per seed, one (len(seeds), r_max, n) float64 array.

    With every column, U = R and Y = pinv(R) R = V V.T: column j has V.T's column norm, and V.T's
    first r rows give rank r's Y for every r (Eckart and Young 1936).  V.T is cut to rank(R), so
    rows past it are 0, which add nothing to a Gram product or a column norm.  Y is exactly 0
    where R is, but the SVD leaves up to 8e-14 there, which `simgen.normalize_columns` would
    scale up: R's zero columns stay 0.
    """
    n = w.shape[1]
    factors = np.zeros((len(seeds), r_max, n))
    for factor, (_, rows, _, (_, _, vt)) in zip(factors, _draws(w, r_max, r_max, n, seeds)):
        factor[: len(vt)] = np.where(w[rows].any(axis=0), vt, 0.0)
    return factors


def proto_similarity(w, config: ProtoConfig) -> simgen.SimilarityMatrix:
    """Median of n_trials thresholded CUR similarity matrices of `w`, its diagonal pinned to 1.

    The trials' F are kept (`_proto_factors`) and `simgen.median_aggregate` takes the median of
    their F.T F one tile at a time, or each F.T F is copied into a stack (`_proto_stack`) in the
    order of the median's walk, which it medians with this n: whichever working set is smaller
    (`_stores_factors`).  Both give the same bits.
    """
    w = as_matrix(w)
    if config.target_rank > min(w.shape):
        raise ValueError("target_rank exceeds min(m, n)")
    n = w.shape[1]
    rows, cols = config.rows(), config.cols(n)
    draws = _draws(w, config.target_rank, rows, cols,
                   range(config.seed, config.seed + config.n_trials))
    trials = _proto_factors if _stores_factors(config.n_trials, cols, n) else _proto_stack
    sim = simgen.median_aggregate(trials(w, draws, config.m_subspaces, cols, config.n_trials), n)
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
    column-normalized, taken from those factors by `simgen.median_aggregate` one tile at a time,
    is raised elementwise to alpha in place and clustered spectrally with config.seed, so rank
    r's result depends on r_max, not on r_min.  Ncut is scored on the powered matrix that was
    clustered; ties go to the smaller rank.
    """
    w = as_matrix(w)
    m, n = w.shape
    if config.r_max > min(m, n):
        raise ValueError(f"r_max={config.r_max} exceeds min(m, n)={min(m, n)}")
    factors = _rcur_factors(w, config.r_max, range(config.seed, config.seed + config.n_trials))
    best = None
    ncut_per_rank = []
    squares = np.zeros((config.n_trials, n))  # squared column norms, rank to rank
    for r in range(1, config.r_max + 1):
        # row by row, in the order np.linalg.norm(vt[:r], axis=0) sums them: its bits
        squares += factors[:, r - 1] * factors[:, r - 1]
        if r < config.r_min:
            continue
        f = simgen.normalize_columns(factors[:, :r], np.sqrt(squares)[:, None, :])
        sim = simgen.median_aggregate(f.astype(np.float32))  # the products are n r n each
        simgen.elementwise_power(sim, config.alpha)  # in place; still symmetric and nonnegative
        labels = _cluster.spectral_cluster(sim, m_subspaces, config.seed)
        ncut = _cluster.ncut_value(sim, labels)
        ncut_per_rank.append((r, ncut))
        if best is None or ncut < best[1]:
            best = (r, ncut, labels)
    return RcurResult(labels=best[2], r_best=best[0], ncut_per_rank=ncut_per_rank)
