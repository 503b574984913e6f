"""Exact and approximate CUR (skeleton) factorization.

A CUR factorization picks index sets I (rows) and J (columns) of a
matrix A and forms C = A[:, J], R = A[I, :] and U = A[I, J]; whenever
rank(U) = rank(A) the identity A = C pinv(U) R holds exactly.  Rows and
columns are selected uniformly at random; a draw whose U has deficient
rank is rejected and retried.  Each draw takes one SVD, of U, for both the
rank test and Y = pinv(U) R; the pipelines compute rank(A) once and pass it in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _pinv_from_svd, _rank_cutoff, as_matrix, numerical_rank, pinv


class RankDeficientSelection(ValueError):
    """The intersection submatrix U does not carry the required rank."""

    def __init__(self, u_rank: int, required_rank: int):
        self.u_rank = u_rank
        self.required_rank = required_rank
        super().__init__(
            f"selection yields rank(U)={u_rank}, required rank {required_rank}"
        )


class SelectionFailed(RuntimeError):
    """No rank-sufficient row/column selection was found within the retry budget."""

    def __init__(self, attempts: int, message: str | None = None):
        self.attempts = attempts
        super().__init__(
            message or f"no rank-sufficient selection after {attempts} attempts"
        )


@dataclass(frozen=True)
class IndexSelection:
    """Sorted, distinct row and column index sets of a CUR selection."""

    row_indices: np.ndarray
    col_indices: np.ndarray

    def __post_init__(self):
        for name, idx in (("row", self.row_indices), ("col", self.col_indices)):
            idx = np.asarray(idx)
            if idx.size == 0:
                raise ValueError(f"empty {name} index set")
            if len(np.unique(idx)) != idx.size:
                raise ValueError(f"duplicate {name} indices")


@dataclass(frozen=True)
class CurFactors:
    """The triple (C, U, R) together with the selection that produced it."""

    c: np.ndarray
    u: np.ndarray
    r: np.ndarray
    selection: IndexSelection

    def reconstruct(self) -> np.ndarray:
        return self.c @ pinv(self.u) @ self.r


def select_uniform(m: int, n: int, s: int, k: int, seed: int) -> IndexSelection:
    """Draw s distinct rows of {0..m-1} and k distinct columns of {0..n-1}.

    Uniform without replacement, deterministic given `seed`.
    """
    if not 1 <= s <= m:
        raise ValueError(f"cannot select s={s} rows from m={m}")
    if not 1 <= k <= n:
        raise ValueError(f"cannot select k={k} columns from n={n}")
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(m, size=s, replace=False))
    cols = np.sort(rng.choice(n, size=k, replace=False))
    return IndexSelection(row_indices=rows, col_indices=cols)


def _extract(a: np.ndarray, selection: IndexSelection) -> CurFactors:
    c = a[:, selection.col_indices]
    r = a[selection.row_indices, :]
    u = a[np.ix_(selection.row_indices, selection.col_indices)]
    return CurFactors(c=c, u=u, r=r, selection=selection)


def cur_factorize(a, selection: IndexSelection) -> CurFactors:
    """Exact CUR factors of `a` for the given selection.

    Requires rank(U) = rank(A); raises RankDeficientSelection otherwise
    so the caller can retry with a fresh selection.
    """
    a = as_matrix(a)
    factors = _extract(a, selection)
    rank_a = numerical_rank(a)
    rank_u = numerical_rank(factors.u)
    if rank_u < rank_a:
        raise RankDeficientSelection(u_rank=rank_u, required_rank=rank_a)
    return factors


def _required_rank(target_rank: int, s: int, k: int, rank_a: int) -> int:
    """Rank an s x k U must reach; no selection can exceed rank(A) itself."""
    if s < 1 or k < 1:
        raise ValueError("s and k must be >= 1")
    required = min(target_rank, s, k, rank_a)
    if required < 1:
        raise SelectionFailed(0, "target rank 0 is degenerate")
    return required


def _sample(a: np.ndarray, s: int, k: int, required: int, seed: int, max_retries: int):
    """First selection of validated `a` with rank(U) >= `required`, and its Y."""
    m, n = a.shape
    for attempt in range(max_retries):
        selection = select_uniform(m, n, s, k, seed + attempt)
        u = a[np.ix_(selection.row_indices, selection.col_indices)]
        svd = np.linalg.svd(u, full_matrices=False)
        if np.sum(svd[1] > _rank_cutoff(svd[1], u.shape)) >= required:
            return selection, _pinv_from_svd(*svd) @ a[selection.row_indices, :]
    raise SelectionFailed(max_retries)


def cur_sample(
    a,
    s: int,
    k: int,
    seed: int,
    max_retries: int = 100,
    target_rank: int | None = None,
) -> CurFactors:
    """Randomly sample a CUR factorization, retrying on rank deficiency.

    Draws uniform selections of s rows and k columns until rank(U)
    reaches ``min(target_rank, s, k)``; `target_rank` defaults to
    rank(a).  For noisy data the caller supplies the clean-data rank as
    `target_rank` and the result is an approximation.  Successive
    attempts use seeds seed, seed+1, ... so the whole draw is
    deterministic.
    """
    a = as_matrix(a)
    rank_a = numerical_rank(a)
    required = _required_rank(rank_a if target_rank is None else target_rank, s, k, rank_a)
    return _extract(a, _sample(a, s, k, required, seed, max_retries)[0])
