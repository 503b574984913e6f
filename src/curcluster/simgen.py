"""Similarity-matrix construction from CUR coefficient matrices.

The coefficient matrix Y = pinv(U) R of a CUR factorization is block
diagonal (up to column permutation) for noise-free union-of-subspaces
data, so the Gram matrix Y.T Y raised to the largest subspace dimension
is an exact similarity matrix.  The noisy pipelines instead combine a
volumetric threshold, column normalization, entrywise medians over many
random factorizations, and elementwise powers; those transforms all live
here as well.

Coefficient matrices are plain k x n numpy arrays; a `SimilarityMatrix`
carries its entries only and validates them where it is built.  The
per-trial kernels take trusted arrays that the library made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cur import CurFactors
from .linalg import BINARIZE_TOL, as_matrix, matrix_power, pinv, skinny_svd

#: the Gram similarities `gram_similarity` and `similarity_noise_free` compute
KINDS = ("binary", "absolute")


#: rows per block of the symmetry check; bounds its temporaries to ~2 blocks
SYMMETRY_BLOCK = 128


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric nonnegative n x n matrix.

    Symmetry is `np.allclose(entries, entries.T, atol=1e-12)`, checked one
    block of `SYMMETRY_BLOCK` rows at a time, so that the check's temporaries
    stay a small fraction of one n x n array.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = as_matrix(self.entries)
        n = entries.shape[0]
        if n != entries.shape[1]:
            raise ValueError(f"similarity matrix must be square, got {entries.shape}")
        for i in range(0, n, SYMMETRY_BLOCK):
            j = i + SYMMETRY_BLOCK
            if not np.allclose(entries[i:j], entries[:, i:j].T, atol=1e-12):
                raise ValueError("similarity matrix must be symmetric")
        if np.any(entries < 0):
            raise ValueError("similarity matrix entries must be nonnegative")
        object.__setattr__(self, "entries", entries)


def coefficient_matrix(factors: CurFactors) -> np.ndarray:
    """Y = pinv(U) R; k x n, satisfies C Y = A when the rank hypothesis held."""
    return pinv(factors.u) @ factors.r


def binarize(q: np.ndarray) -> np.ndarray:
    """0/1 version of q, with entries below BINARIZE_TOL * max|q| taken as 0."""
    q = np.abs(q)
    cutoff = BINARIZE_TOL * q.max() if q.size else 0.0
    return (q > cutoff).astype(float)


def _gram(y: np.ndarray, kind: str) -> np.ndarray:
    """Binary or absolute-value Y.T Y, exactly symmetric (a product with its own transpose)."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    y = np.ascontiguousarray(y)  # a strided y can miss numpy's symmetric A.T @ A product
    q = y.T @ y
    return binarize(q) if kind == "binary" else np.abs(q)


def gram_similarity(y, kind: str) -> SimilarityMatrix:
    """Binary or absolute-value version of the Gram matrix Y.T Y."""
    return SimilarityMatrix(entries=_gram(as_matrix(y), kind))


def similarity_noise_free(y, d_max: int, kind: str) -> SimilarityMatrix:
    """Exact similarity matrix (Y.T Y)^d_max for noise-free union data.

    Powering reconnects clusters whose graph has diameter up to d_max; for
    conforming data the zero/nonzero pattern, which both kinds share, is
    exactly the co-subspace relation.  The binary kind powers only that
    pattern, by repeated squaring with each product binarized: O(log d_max)
    products in exact integer arithmetic, which cannot overflow.  The
    absolute kind is a float power, re-symmetrized after its round-off; a
    large enough d_max overflows it (ValueError).
    """
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    q = _gram(as_matrix(y), kind)
    if kind == "binary":
        return SimilarityMatrix(entries=_pattern_power(q, d_max))
    powered = matrix_power(q, d_max)
    if not np.all(np.isfinite(powered)):
        raise ValueError(f"the absolute power (Y.T Y)^d_max overflows float64 at d_max={d_max}; "
                         "the binary kind has the same zero pattern and cannot overflow")
    return SimilarityMatrix(entries=0.5 * (powered + powered.T))


def _pattern_power(q: np.ndarray, p: int) -> np.ndarray:
    """0/1 pattern of q^p for a symmetric 0/1 q; commuting powers keep it exactly symmetric."""
    if p == 1:
        return q
    half = _pattern_power(q, p // 2)
    square = binarize(half @ half)
    return binarize(square @ q) if p % 2 else square


def threshold_volumetric(y: np.ndarray, m_subspaces: int, scratch: np.ndarray) -> np.ndarray:
    """The ceil((1 - 1/M) * k * n) largest-magnitude entries of k x n `y` in float32, others +0.0.

    `y` is only read.  `scratch`, a C-contiguous float64 array of `y`'s
    shape, is the caller's workspace, so that a trial loop can reuse it;
    its contents on entry do not matter.  The result F is a float32 view
    of its first half.  One in-place partition of |y| in `scratch` finds
    the cut value; the spent |y|'s second half then holds a keep mask
    (and the masks that build it: no k x n array is allocated), which
    marks every entry with |y| >= cut and then unmarks the surplus
    ties (entries equal to the cut past the count), latest row-major
    position first, so ties at the cut go to the earliest row-major
    positions, as a stable sort of -|y| would.  F is `y` rounded to
    float32, its bit patterns then multiplied by the mask: no masked
    store, which is three times slower.  `y` must be finite, as the trial
    loop's coefficient matrices are.  M = 1 is degenerate (the formula
    would keep nothing) and keeps every entry.
    """
    size = y.size
    raw = scratch.reshape(-1)
    out = raw.view(np.float32)[:size].reshape(y.shape)
    if m_subspaces == 1:
        np.copyto(out, y)
        return out
    count = math.ceil((1.0 - 1.0 / m_subspaces) * size)
    np.abs(y, out=scratch)
    raw.partition(size - count)
    cut = raw[size - count]
    # the spent |y|'s bytes past F's hold three masks; |y| >= cut is y >= cut or y <= -cut
    keep, below, spare = raw.view(bool)[4 * size : 7 * size].reshape(3, *y.shape)
    np.greater_equal(y, cut, out=keep)
    np.logical_or(keep, np.less_equal(y, -cut, out=below), out=keep)
    surplus = np.count_nonzero(keep) - count
    if surplus:  # the cut value repeats, as in a mirrored pair: `below` marks |y| == cut
        np.logical_or(np.equal(y, cut, out=below), np.equal(y, -cut, out=spare), out=below)
        keep.flat[np.flatnonzero(below)[-surplus:]] = False
    np.copyto(out, y)
    bits = out.view(np.int32)
    np.multiply(bits, keep, out=bits)  # on the bits, so a dropped entry is +0.0, never -0.0
    return out


def upper_triangle(n: int) -> np.ndarray:
    """Row-major flat indices of an n x n matrix's upper triangle: the packed stack's columns.

    Taken from an n x n boolean mask, so the only int64 array is the result.
    """
    return np.flatnonzero(~np.tri(n, k=-1, dtype=bool))


def median_aggregate(stack: np.ndarray) -> SimilarityMatrix:
    """Entrywise median of k symmetric n x n matrices, then absolute value.

    `stack` is the packed k x n(n+1)/2 float array whose row i holds trial
    i's upper triangle, in `upper_triangle(n)` order; the trial loop's is
    float32.  It is partitioned in place, scrambling it, and its row k // 2
    ends up holding the median, in the stack's dtype.  The median, taken
    once per upper-triangle entry, is mirrored into a symmetric float64
    matrix one row of the triangle at a time, which needs no flat index.
    An even count averages the middle two.  One partition at k // 2 finds
    it: for an even count the lower middle is then the largest entry of
    the rows below k // 2.  The stack must be finite, as the trial loop's
    Gram products are: unlike `np.median`, the partition does not turn a
    NaN trial into a NaN median.
    """
    k = stack.shape[0]
    stack.partition(k // 2, axis=0)
    mid = stack[k // 2]  # a view: no row of its own at the validation's memory peak
    if k % 2 == 0:
        mid += stack[: k // 2].max(axis=0)
        mid /= 2
    np.abs(mid, out=mid)
    n = (math.isqrt(8 * stack.shape[1] + 1) - 1) // 2  # solves n(n+1)/2 = row length
    med = np.empty((n, n))
    start = 0
    for i in range(n):  # row i of the upper triangle is mid's next n - i entries
        med[i, i:] = med[i:, i] = mid[start : start + n - i]
        start += n - i
    return SimilarityMatrix(entries=med)


def enforce_diagonal(mat: np.ndarray) -> np.ndarray:
    """Set a square array's diagonal to 1 in place; returns the same array."""
    np.fill_diagonal(mat, 1.0)
    return mat


def normalize_columns(y: np.ndarray) -> np.ndarray:
    """Scale each column to unit Euclidean norm; zero columns stay zero."""
    norms = np.linalg.norm(y, axis=0)
    safe = np.where(norms < 1e-14, 1.0, norms)
    return y / safe


def elementwise_power(sim: SimilarityMatrix, alpha: float) -> SimilarityMatrix:
    """Raise every entry of `sim` to a finite `alpha` > 0 in place; returns the same `sim`.

    Entries above 1, as a median can have by round-off, overflow at a huge
    alpha (ValueError); the power keeps them symmetric and nonnegative.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    entries = sim.entries  # a frozen field: raise the array, not the attribute
    entries **= alpha
    if not np.isfinite(entries).all():
        raise ValueError(f"alpha={alpha} overflows float64 in the elementwise power")
    return sim


def sim_baseline(w, r: int) -> SimilarityMatrix:
    """Shape-interaction baseline |V_r V_r.T|, exactly symmetric, from the data's skinny SVD."""
    right = skinny_svd(w, r).right
    return SimilarityMatrix(entries=np.abs(right @ right.T))
