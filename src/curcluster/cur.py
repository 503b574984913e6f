"""Exact and approximate CUR (skeleton) factorization.

A CUR factorization picks index sets I (rows) and J (columns) of a
matrix A and forms C = A[:, J], R = A[I, :] and U = A[I, J]; whenever
rank(U) = rank(A) the identity A = C pinv(U) R holds exactly.  Rows and
columns are selected uniformly at random; a draw whose U has deficient
rank is rejected and retried.  One generator (`_draws`) makes every draw:
each takes one SVD, of U, and returns it cut to its rank, not Y.  The rank
a draw must reach, min(target, s, k, rank(A)), is proved from the first
draw's own singular values where it can be (`_required`), so that A's own
SVD is taken only when that fails.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import RANK_TOL, _rank_cutoff, as_matrix, numerical_rank, pinv

MAX_RETRIES = 100  # random selections drawn before a sampler gives up


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
    """One-dimensional, distinct, integer-typed row and column index sets of a CUR selection
    (`select_uniform` returns them sorted)."""

    row_indices: np.ndarray
    col_indices: np.ndarray

    def __post_init__(self):
        for name, idx in (("row", self.row_indices), ("col", self.col_indices)):
            idx = np.asarray(idx)
            if idx.ndim != 1:  # np.ix_ fails on it inside numpy
                raise ValueError(f"{name} index set must be one-dimensional, got ndim={idx.ndim}")
            if idx.size == 0:
                raise ValueError(f"empty {name} index set")
            if idx.dtype.kind not in "iu":  # a float set or a boolean mask fails inside numpy
                raise ValueError(f"{name} index set must be of integer type, got {idx.dtype}")
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
    """Draw s distinct rows of {0..m-1} and k distinct columns of {0..n-1}, each set sorted.

    Uniform without replacement, deterministic given `seed`.
    """
    return IndexSelection(*_draw(m, n, s, k, seed))


def _draw(m: int, n: int, s: int, k: int, seed: int):
    """`select_uniform`'s sorted, distinct rows and columns, as arrays, with no IndexSelection."""
    if not 1 <= s <= m:
        raise ValueError(f"cannot select s={s} rows from m={m}")
    if not 1 <= k <= n:
        raise ValueError(f"cannot select k={k} columns from n={n}")
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(m, size=s, replace=False))
    cols = np.arange(n) if k == n else np.sort(rng.choice(n, size=k, replace=False))
    return rows, cols


def _extract(a: np.ndarray, selection: IndexSelection) -> CurFactors:
    c = a[:, selection.col_indices]
    r = a[selection.row_indices, :]
    u = a[np.ix_(selection.row_indices, selection.col_indices)]
    return CurFactors(c=c, u=u, r=r, selection=selection)


def cur_factorize(a, selection: IndexSelection) -> CurFactors:
    """Exact CUR factors of `a` for the given selection.

    Requires rank(U) = rank(A); raises RankDeficientSelection otherwise
    so the caller can retry with a fresh selection.  Indices outside A are
    a ValueError, negative ones included.
    """
    a = as_matrix(a)
    for name, idx, size in (("row", selection.row_indices, a.shape[0]),
                            ("col", selection.col_indices, a.shape[1])):
        idx = np.asarray(idx)
        outside = idx[(idx < 0) | (idx >= size)]
        if outside.size:
            raise ValueError(f"{name} index {outside[0]} is outside [0, {size})")
    factors = _extract(a, selection)
    rank_a = numerical_rank(a)
    rank_u = numerical_rank(factors.u)
    if rank_u < rank_a:
        raise RankDeficientSelection(u_rank=rank_u, required_rank=rank_a)
    return factors


def _required(a: np.ndarray, target_rank: int, s: int, k: int, sing: np.ndarray) -> int:
    """min(target_rank, s, k, rank(A)) of validated `a` from the singular values `sing` of an
    s x k U of it, without A's SVD where they prove rank(A) >= r0 = min(target_rank, s, k).

    Singular values interlace for submatrices (Thompson 1972): sigma_i(U) <= sigma_i(A), and
    sigma_1(A) <= ||A||_F <= sqrt(mn) max|a_ij|, a maximum that is exact in floating point.  So
    sigma_r0(U) above twice `numerical_rank`'s cutoff at that bound puts r0 singular values of A
    above its cutoff; the factor 2 covers LAPACK's backward error of p(n) eps sigma_1, far below
    RANK_TOL max(m, n) sigma_1.  Where the bound is not a finite normal float, or U misses it,
    A's SVD decides.
    """
    m, n = a.shape
    r0 = min(target_rank, s, k)
    bound = 2 * RANK_TOL * max(m, n) * math.sqrt(m * n) * float(max(a.max(), -a.min()))
    if r0 >= 1 and math.isfinite(bound) and bound >= sys.float_info.min and sing[r0 - 1] > bound:
        return r0
    required = min(r0, numerical_rank(a))
    if required < 1:
        raise SelectionFailed(0, "target rank 0 is degenerate")
    return required


def _draws(a: np.ndarray, target_rank: int, s: int, k: int, seeds, max_retries=MAX_RETRIES):
    """For each seed, the first draw of validated `a` (seeds seed, seed + 1, ...) whose U reaches
    the required rank, as (required, rows, columns, U's SVD cut to rank(U)).

    The first seed's first attempt also decides the required rank (`_required`).  Draws come
    from `_draw`, exactly as `select_uniform` makes them, and are not validated again.
    """
    m, n = a.shape
    required = None
    for seed in seeds:
        for attempt in range(max_retries):
            rows, cols = _draw(m, n, s, k, seed + attempt)
            u = a[rows] if k == n else a[np.ix_(rows, cols)]  # every column: a plain row gather
            left, sing, right = np.linalg.svd(u, full_matrices=False)
            if required is None:
                required = _required(a, target_rank, s, k, sing)
            rank = np.count_nonzero(sing > _rank_cutoff(sing, u.shape))
            if rank >= required:
                yield required, rows, cols, (left[:, :rank], sing[:rank], right[:rank])
                break
        else:
            raise SelectionFailed(max_retries)


def cur_sample(
    a,
    s: int,
    k: int,
    seed: int,
    max_retries: int = MAX_RETRIES,
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
    target_rank = min(s, k) if target_rank is None else target_rank
    _, rows, cols, _ = next(_draws(a, target_rank, s, k, [seed], max_retries))
    return _extract(a, IndexSelection(row_indices=rows, col_indices=cols))
