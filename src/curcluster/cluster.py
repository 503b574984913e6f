"""Clustering back-ends and evaluation metrics.

Provides Lloyd's k-means with k-means++ seeding and restarts, spectral
clustering on the symmetric normalized Laplacian, principal-coordinate
clustering (k-means on the order-M principal coordinates of the
similarity matrix, taken from its M eigenpairs of largest |lambda|), exact
connected-components labeling, the Ncut value of a partition, and the
permutation-invariant clustering-error metric, which matches labels by
an optimal assignment and so takes any number of clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix
from .simgen import SimilarityMatrix, binarize

_KMEANS_MAX_ITER = 300
_KMEANS_REL_TOL = 1e-8
_DEGREE_FLOOR = 1e-12
#: `pcc_cluster` drops a coordinate whose |lambda| is at most n times this, relative to
#: the largest: the resolution (2^-23) of the float32 Gram products proto's median is built
#: from, as `linalg.RANK_TOL` is float64 round-off
_PCC_RANK_TOL = float(np.finfo(np.float32).eps)

#: order from which `pcc_cluster` tries the subspace iteration before a full
#: `eigh`.  On `proto` medians (25 trials, sigma 0 to 0.1, M = 3, one BLAS
#: thread of a 2-vCPU host) iteration, certificate and any fallback took a
#: median 9.7 ms where `eigh` took 12.9 ms at n = 300 (9 of 12 certified;
#: sigma 0.1 ran out of steps); at n = 210 half the medians fell back, costing more
#: than `eigh` alone, and at n = 150 its cap of 18 steps is below the 22-31
#: that convergence needs.  At n = 1200 it took 0.17-0.18 s for 0.5 s.
_SUBSPACE_MIN_N = 300
_SUBSPACE_OVERSAMPLE = 5
#: an accepted Ritz pair's residual bound, relative to the largest |Ritz value|;
#: the round-off floor is about 1.5e-15 at n = 1200
_SUBSPACE_TOL = 1e-14
_SUBSPACE_SEED = 0
#: steps over which the largest residual must halve; slower (over 0.84 a
#: step) it would not reach `_SUBSPACE_TOL` within the cap at n = 1200
_SUBSPACE_STALL = 4


@dataclass(frozen=True)
class LabelVector:
    """Length-n integer cluster assignment in {0, ..., m_clusters-1}."""

    labels: np.ndarray
    m_clusters: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a nonempty 1-d integer array")
        if self.m_clusters < 1:
            raise ValueError("m_clusters must be >= 1")
        if labels.min() < 0 or labels.max() >= self.m_clusters:
            raise ValueError(
                f"labels must lie in [0, {self.m_clusters}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.size


def _sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances (restarts x k x n) from each restart's k centers to the points.

    Taken as ||x||^2 - 2 c.x + ||c||^2 through one matrix product, clipped at 0.
    """
    restarts, k, d = centers.shape
    d2 = ((-2.0 * centers).reshape(-1, d) @ points.T).reshape(restarts, k, -1)
    d2 += np.einsum("ij,ij->i", points, points)
    d2 += np.einsum("rkd,rkd->rk", centers, centers)[:, :, None]
    return np.maximum(d2, 0.0, out=d2)


def _plus_plus_seed(points: np.ndarray, k: int, restarts: int, rng) -> np.ndarray:
    """k-means++ initial centers (restarts x k x d), every restart drawing from `rng`.

    Each center is drawn proportional to D^2 (to the restart's centers so far)
    by one `random()` placed in D^2's cumulative sum, or uniformly where all D^2 are 0.
    """
    n = points.shape[0]
    centers = np.empty((restarts, k, points.shape[1]))
    d2 = np.zeros((restarts, n))
    for j in range(k):
        cdf = np.cumsum(d2, axis=1)
        cdf[cdf[:, -1] <= 0] = np.arange(1, n + 1)
        picks = np.count_nonzero(cdf <= rng.random((restarts, 1)) * cdf[:, -1:], axis=1)
        centers[:, j] = points[picks]
        d2 = _sq_distances(points, centers[:, :j + 1]).min(axis=1)
    return centers


def _repair_empty(d2: np.ndarray, labels: np.ndarray, k: int) -> None:
    """Give each empty cluster, in order, the point farthest from its center.

    The point is taken from a cluster with more than one member (n >= k
    leaves one), so that no repair empties another.  `d2` (n x k) and
    `labels` are one restart's, updated in place.
    """
    for j in range(k):
        if not np.any(labels == j):
            assigned = d2[np.arange(len(labels)), labels]
            shared = np.bincount(labels, minlength=k)[labels] > 1
            far = int(np.argmax(np.where(shared, assigned, -np.inf)))
            labels[far] = j
            d2[far, :] = np.inf
            d2[far, j] = 0.0


def _lloyd(points: np.ndarray, centers: np.ndarray, history=None):
    """Lloyd iterations of every restart from its centers (restarts x k x d), updated in place.

    Returns the labels (restarts x n) and WCSS (restarts) each restart
    stopped at: its own convergence test or `_KMEANS_MAX_ITER`.  When
    `history` is a list, the WCSS of all restarts is appended after every
    iteration (a stopped restart keeps its value; each restart's sequence is
    nonincreasing).
    """
    (restarts, k, _), n = centers.shape, len(points)
    labels, wcss = np.empty((restarts, n), dtype=int), np.full(restarts, np.inf)
    active = np.arange(restarts)
    d2 = _sq_distances(points, centers)
    for _ in range(_KMEANS_MAX_ITER):
        near = np.argmin(d2, axis=1)
        onehot = near[:, None] == np.arange(k)[:, None]
        for i in np.flatnonzero(~onehot.any(axis=2).all(axis=1)):
            _repair_empty(d2[i].T, near[i], k)
            onehot[i] = near[i] == np.arange(k)[:, None]
        sums = (onehot.reshape(-1, n).astype(float) @ points).reshape(len(active), k, -1)
        centers[active] = sums / onehot.sum(axis=2)[:, :, None]
        labels[active] = near
        d2 = _sq_distances(points, centers[active])
        before, now = wcss[active], np.take_along_axis(d2, near[:, None], axis=1).sum(axis=(1, 2))
        wcss[active] = now
        if history is not None:
            history.append(wcss.copy())
        converged = (now == 0.0) | (
            np.isfinite(before) & (before - now <= _KMEANS_REL_TOL * np.maximum(before, 1e-300))
        )
        active, d2 = active[~converged], d2[~converged]
        if not active.size:
            break
    return labels, wcss


def kmeans(points, m_clusters: int, seed: int, restarts: int = 20) -> LabelVector:
    """k-means on the rows of `points`, best of `restarts` runs by WCSS.

    The points are scaled by a power of two (exactly) so that |x| < 1 and
    centred on their mean, so finite points at any scale get the labels of
    scale 1.  All restarts draw from one `np.random.default_rng(seed)`; the
    first whose WCSS is within `_KMEANS_REL_TOL` of the least wins, since one
    batched product can give one partition's means different last bits.
    """
    points = as_matrix(points)
    n = points.shape[0]
    if not 1 <= m_clusters <= n:
        raise ValueError(f"need 1 <= m_clusters <= n, got M={m_clusters}, n={n}")
    x = np.ldexp(points, -np.frexp(max(points.max(), -points.min()))[1])
    x -= x.mean(axis=0)
    labels, wcss = _lloyd(x, _plus_plus_seed(x, m_clusters, restarts, np.random.default_rng(seed)))
    best = np.argmax(wcss <= (1.0 + _KMEANS_REL_TOL) * wcss.min())
    return LabelVector(labels=labels[best], m_clusters=m_clusters)


def spectral_cluster(sim: SimilarityMatrix, m_clusters: int, seed: int) -> LabelVector:
    """Spectral clustering with the symmetric normalized graph Laplacian.

    Operates directly on D^{-1/2} S D^{-1/2} and takes the eigenvectors of
    largest eigenvalue (equivalent to the smallest eigenvalues of L_sym);
    rows of the spectral embedding are unit-normalized before k-means.
    Self-loops are discarded first: they say nothing about the partition,
    and a pinned diagonal would otherwise dominate the degrees and wash
    out the embedding.
    """
    s = sim.entries.copy()
    np.fill_diagonal(s, 0.0)
    degrees = np.maximum(s.sum(axis=1), _DEGREE_FLOOR)
    d_isqrt = 1.0 / np.sqrt(degrees)
    normalized = d_isqrt[:, None] * s * d_isqrt[None, :]
    eigvals, eigvecs = np.linalg.eigh(0.5 * (normalized + normalized.T))
    embedding = eigvecs[:, -m_clusters:]
    row_norms = np.linalg.norm(embedding, axis=1)
    embedding = embedding / np.where(row_norms < 1e-14, 1.0, row_norms)[:, None]
    return kmeans(embedding, m_clusters, seed)


def _certified(a: np.ndarray, theta: np.ndarray, vectors: np.ndarray,
               products: np.ndarray) -> bool:
    """Whether the Ritz pairs (theta, Q = `vectors`) are surely the m of largest |lambda| of `a`.

    `products` is a Q.  In the basis [Q, Q_perp], `a` is diag(theta, K),
    K its restriction to Q's complement, plus a perturbation of norm at
    most r = 2 ||a Q - Q diag(theta)||_F.  By Weyl's inequality each
    eigenvalue of `a` then lies within r of its partner in theta and
    spec(K), so if spec(K) lies in (-t, t), t = |theta_m| - 2r, the m
    eigenvalues paired with theta are the m of largest |lambda|.  Each end
    of that interval is proved by the Laguerre-Samuelson inequality (the
    n - m eigenvalues of K lie within sqrt(n - m - 1) standard deviations
    of their mean, both read off the trace and Frobenius norm of P a P,
    P = I - Q Q.T) or, where that is too weak, by a Cholesky factorization
    of t I - P a P or t I + P a P (on Q both are t I).  t is lowered by
    4 n^2 eps ||a||_F, more than the round-off in forming and factoring
    them (Rump, BIT 2006), and the variance raised by 2 n^2 eps times the
    mean square, more than the round-off in summing it.
    """
    n, rest = len(a), max(len(a) - len(theta), 1)
    round_off = n * n * np.finfo(float).eps
    bound = (abs(theta[-1]) - 4 * np.linalg.norm(products - vectors * theta)
             - 4 * round_off * np.linalg.norm(a))
    if not bound > 0:
        return False
    half = products - 0.5 * vectors @ (vectors.T @ products)
    shifted = np.hstack([vectors, half]) @ np.hstack([half, vectors]).T
    shifted -= a  # Q half.T + half Q.T - a = -P a P
    mean, mean_square = -np.trace(shifted) / rest, np.vdot(shifted, shifted) / rest
    spread = np.sqrt((rest - 1) * max(mean_square * (1 + 2 * round_off) - mean * mean, 0.0))
    shifted.flat[:: n + 1] += bound  # t I - P a P
    try:
        if mean + spread >= bound:
            np.linalg.cholesky(shifted)
        if mean - spread <= -bound:
            np.negative(shifted, out=shifted)
            shifted.flat[:: n + 1] += 2 * bound  # t I + P a P
            np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _leading_eigenpairs(a: np.ndarray, m: int):
    """The m eigenpairs of largest |lambda| of symmetric `a` by block subspace iteration.

    Iterates a block of m + `_SUBSPACE_OVERSAMPLE` orthonormal vectors,
    from a fixed-seed Gaussian start, on a - s I with s = trace(a) / n:
    for `proto`'s unit diagonal that is a - I, which moves the bulk of
    eigenvalues near 1 to near 0, so the leading ones separate faster
    (rate 0.15 / 0.37 in place of 1.15 / 1.37 at n = 1200).  Each step
    takes one product Y = a X, a Rayleigh-Ritz step on `a` from X.T Y,
    and X = qr(Y - s X).  Once every residual of the leading m Ritz pairs,
    ordered by |theta| (ties in eigenvalue order), is at most
    `_SUBSPACE_TOL` * max |theta|, returns them as (theta, vectors) if
    `_certified` shows that no eigenvalue left out is as large, else None.
    Gives up (None) after n // block steps, about the cost of one `eigh`,
    and sooner once the largest residual fails to halve over
    `_SUBSPACE_STALL` steps, a rate at which that cap mostly runs out first.
    """
    n = a.shape[0]
    block = min(m + _SUBSPACE_OVERSAMPLE, n)
    shift = np.trace(a) / n
    x = np.linalg.qr(np.random.default_rng(_SUBSPACE_SEED).standard_normal((n, block)))[0]
    history = []
    for step in range(n // block):
        y = a @ x
        theta, rotation = np.linalg.eigh(x.T @ y)
        order = np.argsort(-np.abs(theta), kind="stable")[:m]
        theta, rotation = theta[order], rotation[:, order]
        vectors, products = x @ rotation, y @ rotation
        residual = np.linalg.norm(products - vectors * theta, axis=0).max()
        if residual <= _SUBSPACE_TOL * abs(theta[0]):
            return (theta, vectors) if _certified(a, theta, vectors, products) else None
        history.append(residual)
        if step >= _SUBSPACE_STALL and residual > 0.5 * history[step - _SUBSPACE_STALL]:
            return None
        x = np.linalg.qr(y - shift * x)[0]
    return None


def pcc_cluster(sim: SimilarityMatrix, m_clusters: int, seed: int) -> LabelVector:
    """Principal-coordinate clustering: k-means on the order-M coordinates.

    Clusters the n points given by the columns of Sigma_M V_M.T, the
    similarity matrix's skinny SVD of order M (one M-dimensional
    coordinate vector per data point).  The matrix is symmetric, so the
    singular values are the |lambda|, and the M eigenpairs of largest
    |lambda| (ties in eigenvalue order) scaled by |lambda| are the SVD's
    coordinates up to column sign, which k-means does not see.  From
    order `_SUBSPACE_MIN_N` on they come from a shifted block subspace
    iteration (`_leading_eigenpairs`) that accepts them only when their
    residuals are at round-off level and two Cholesky factorizations
    certify that no eigenvalue left out is as large in magnitude;
    otherwise, and for smaller n, from a full `np.linalg.eigh`.
    Values at most `_PCC_RANK_TOL` * n times the largest are dropped, as
    round-off of the float32-built median; an all-zero matrix leaves no
    coordinate (ValueError).
    """
    entries = sim.entries
    n = entries.shape[0]
    if not 1 <= m_clusters <= n:
        raise ValueError(f"need 1 <= m_clusters <= n, got M={m_clusters}, n={n}")
    found = _leading_eigenpairs(entries, m_clusters) if n >= _SUBSPACE_MIN_N else None
    if found is None:
        eigvals, eigvecs = np.linalg.eigh(entries)
        order = np.argsort(-np.abs(eigvals), kind="stable")[:m_clusters]
        found = eigvals[order], eigvecs[:, order]
    singulars, vectors = np.abs(found[0]), found[1]
    keep = int(np.sum(singulars > _PCC_RANK_TOL * n * singulars[0]))  # largest first
    coords = vectors[:, :keep] * singulars[:keep]  # n x M
    return kmeans(coords, m_clusters, seed)


def connected_components(sim: SimilarityMatrix) -> LabelVector:
    """Components of the graph with an edge wherever the entry is nonzero.

    Only the zero pattern is read: an edge is a nonzero entry of
    `simgen.binarize(sim.entries)`.  Component ids are assigned in
    first-seen column order.
    """
    adjacency = binarize(sim.entries) > 0
    labels = np.full(len(adjacency), -1, dtype=int)
    current = 0
    for start in range(labels.size):
        if labels[start] != -1:
            continue
        labels[start] = current
        stack = [start]
        while stack:
            reached = np.flatnonzero(adjacency[stack.pop()] & (labels == -1))
            labels[reached] = current
            stack.extend(reached)
        current += 1
    return LabelVector(labels=labels, m_clusters=current)


def ncut_value(sim: SimilarityMatrix, labels: LabelVector) -> float:
    """Normalized-cut objective 0.5 * sum_i cut(A_i) / vol(A_i).

    Clusters with volume below 1e-12 contribute the worst-case penalty 1
    so that degenerate partitions never win an Ncut argmin.
    """
    s = sim.entries
    if labels.n != s.shape[0]:
        raise ValueError(
            f"labels length {labels.n} does not match similarity order {s.shape[0]}"
        )
    degrees = s.sum(axis=1)
    total = 0.0
    for c in range(labels.m_clusters):
        members = labels.labels == c
        vol = float(degrees[members].sum())
        if vol < 1e-12:
            total += 1.0
            continue
        cut = float(s[np.ix_(members, ~members)].sum())
        total += 0.5 * cut / vol
    return total


def _max_weight_matching(weights: np.ndarray) -> np.ndarray:
    """Column assigned to each row of a square array, of largest total weight.

    The Hungarian method (Kuhn 1955) in its shortest-augmenting-path form
    with row and column potentials, O(N^3): row i is added by the
    cheapest path in reduced cost to a free column.  Integer weights keep
    every potential an exact integer in float64.
    """
    cost = weights.max() - weights.astype(float)
    size = len(cost)
    # index 0 is a virtual column; rows and columns are numbered from 1
    row_pot, col_pot = np.zeros(size + 1), np.zeros(size + 1)
    row_of = np.zeros(size + 1, dtype=int)
    back = np.zeros(size + 1, dtype=int)
    for row in range(1, size + 1):
        row_of[0] = row
        col = 0
        slack = np.full(size + 1, np.inf)
        done = np.zeros(size + 1, dtype=bool)
        while row_of[col]:
            done[col] = True
            reduced = cost[row_of[col] - 1] - row_pot[row_of[col]] - col_pot[1:]
            better = ~done[1:] & (reduced < slack[1:])
            slack[1:][better] = reduced[better]
            back[1:][better] = col
            free_slack = np.where(done, np.inf, slack)
            nxt = int(np.argmin(free_slack))
            delta = free_slack[nxt]
            row_pot[row_of[done]] += delta
            col_pot[done] -= delta
            slack[~done] -= delta
            col = nxt
        while col:
            row_of[col] = row_of[back[col]]
            col = back[col]
    col_of = np.empty(size, dtype=int)
    col_of[row_of[1:] - 1] = np.arange(size)
    return col_of


def clustering_error(predicted: LabelVector, truth: LabelVector) -> float:
    """Minimum-over-relabelings percentage of misassigned points.

    The relabeling is an optimal assignment on the contingency table of
    the two label vectors, zero-padded to a square, so any number of
    clusters is allowed.
    """
    if predicted.n != truth.n:
        raise ValueError(
            f"label lengths differ: {predicted.n} vs {truth.n}"
        )
    size = max(predicted.m_clusters, truth.m_clusters)
    table = np.bincount(predicted.labels * size + truth.labels,
                        minlength=size * size).reshape(size, size)
    matched = int(table[np.arange(size), _max_weight_matching(table)].sum())
    return 100.0 * (predicted.n - matched) / predicted.n
