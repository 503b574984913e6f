"""Clustering back-ends and evaluation metrics.

Provides Lloyd's k-means with k-means++ seeding and restarts, spectral
clustering on the symmetric normalized Laplacian, principal-coordinate
clustering (k-means on the order-M principal coordinates of the
similarity matrix, taken from its symmetric eigendecomposition), exact
connected-components labeling, the Ncut value of a partition, and the
permutation-invariant clustering-error metric, which matches labels by
an optimal assignment and so takes any number of clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _rank_cutoff, as_matrix
from .simgen import SimilarityMatrix, binarize

_KMEANS_MAX_ITER = 300
_KMEANS_REL_TOL = 1e-8
_DEGREE_FLOOR = 1e-12


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


def _plus_plus_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ initial centers: each next center drawn proportional to D^2."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = points[rng.integers(n)]
        else:
            centers[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray, k: int, history=None):
    """Lloyd iterations from the given centers; returns (labels, wcss).

    When `history` is a list, the per-iteration WCSS values are appended
    to it (the sequence is nonincreasing).
    """
    prev = np.inf
    for _ in range(_KMEANS_MAX_ITER):
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        # repair empty clusters with the point farthest from its center
        for j in range(k):
            if not np.any(labels == j):
                assigned = d2[np.arange(points.shape[0]), labels]
                far = int(np.argmax(assigned))
                labels[far] = j
                d2[far, :] = np.inf
                d2[far, j] = 0.0
        for j in range(k):
            centers[j] = points[labels == j].mean(axis=0)
        wcss = float(np.sum((points - centers[labels]) ** 2))
        if history is not None:
            history.append(wcss)
        if wcss == 0.0 or (
            np.isfinite(prev) and prev - wcss <= _KMEANS_REL_TOL * max(prev, 1e-300)
        ):
            return labels, wcss
        prev = wcss
    return labels, wcss


def kmeans(points, m_clusters: int, seed: int, restarts: int = 20) -> LabelVector:
    """k-means on the rows of `points`, best of `restarts` runs by WCSS."""
    points = as_matrix(points)
    n = points.shape[0]
    if not 1 <= m_clusters <= n:
        raise ValueError(f"need 1 <= m_clusters <= n, got M={m_clusters}, n={n}")
    best_labels, best_wcss = None, np.inf
    for trial in range(restarts):
        rng = np.random.default_rng(seed + trial)
        centers = _plus_plus_seed(points, m_clusters, rng)
        labels, wcss = _lloyd(points, centers.copy(), m_clusters)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
        if best_wcss == 0.0:
            break
    return LabelVector(labels=best_labels, m_clusters=m_clusters)


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


def pcc_cluster(sim: SimilarityMatrix, m_clusters: int, seed: int) -> LabelVector:
    """Principal-coordinate clustering: k-means on the order-M coordinates.

    Clusters the n points given by the columns of Sigma_M V_M.T, the
    similarity matrix's skinny SVD of order M (one M-dimensional
    coordinate vector per data point).  The matrix is symmetric, so they
    come from `np.linalg.eigh`: the singular values are the |lambda|, and
    the M eigenpairs of largest |lambda| (ties in eigenvalue order) scaled
    by |lambda| are the SVD's coordinates up to column sign, which k-means
    does not see.  Values below the shared rank cutoff are dropped, as in
    `skinny_svd`; an all-zero matrix leaves no coordinate (ValueError).
    """
    entries = sim.entries
    n = entries.shape[0]
    if not 1 <= m_clusters <= n:
        raise ValueError(f"need 1 <= m_clusters <= n, got M={m_clusters}, n={n}")
    eigvals, eigvecs = np.linalg.eigh(entries)
    order = np.argsort(-np.abs(eigvals), kind="stable")
    singulars = np.abs(eigvals[order])
    keep = min(m_clusters, int(np.sum(singulars > _rank_cutoff(singulars, entries.shape))))
    coords = eigvecs[:, order[:keep]] * singulars[:keep]  # n x M
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
