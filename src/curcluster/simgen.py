"""Similarity-matrix construction from CUR coefficient matrices.

The coefficient matrix Y = pinv(U) R of a CUR factorization is block
diagonal (up to column permutation) for noise-free union-of-subspaces
data, so the Gram matrix Y.T Y raised to the largest subspace dimension
is an exact similarity matrix.  The noisy pipelines instead combine a
volumetric threshold, column normalization, entrywise medians over many
random factorizations, and elementwise powers; those transforms all live
here as well.  The threshold rounds Y to float32 in place and keeps every
entry at or above its cut, so what it keeps depends on values only.

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


#: bytes per block of the kernels that work on a matrix in pieces: the threshold's keep pass (27
#: rows of F at n = 1200, all 150 rows at n = 150; its mask is made in |F|'s scratch) and the
#: similarity matrix's symmetry check
BLOCK_BYTES = 1 << 18


def block_rows(width: int) -> int:
    """Rows of a float64 array `width` columns wide that make one `BLOCK_BYTES` block (at least 1)."""
    return max(1, BLOCK_BYTES // (8 * width))


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric nonnegative n x n matrix.

    Symmetry is `np.allclose(entries, entries.T, atol=1e-12)`, checked one
    block of `block_rows(n)` rows at a time, and the sign is read off the
    least entry, so that the checks' temporaries are a few blocks at any n.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = as_matrix(self.entries)
        n = entries.shape[0]
        if n != entries.shape[1]:
            raise ValueError(f"similarity matrix must be square, got {entries.shape}")
        rows = block_rows(n)
        for i in range(0, n, rows):
            block, mirror = entries[i:i + rows], entries[:, i:i + rows].T
            if not (np.array_equal(block, mirror) or np.allclose(block, mirror, atol=1e-12)):
                raise ValueError("similarity matrix must be symmetric")
        if entries.min() < 0:
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


def threshold_volumetric(y: np.ndarray, m_subspaces: int) -> np.ndarray:
    """Y rounded to float32 F, its kn - floor(kn / M) largest magnitudes and ties kept, others +0.0.

    `y` is the caller's C-contiguous k x n float64 Y, which the threshold
    spends: F is a float32 view of its first half.  F's rows are written over
    rows of Y already converted, one row first and then as many rows as are
    done, so that no row of F overlaps a row of Y that is still to be read.
    |F| goes into Y's spent second half, where a partition finds the cut, the
    |F| with floor(kn / M) entries below it in sorted order.  The partition is
    on |F|'s bits as int32, which order as the values do (|F| >= +0.0 and
    finite) and which numpy selects 3-4 times faster.  Every entry at or above
    the cut is kept, so the kept set depends only on F's values: ties at the
    cut, such as the mirrored pairs of a symmetric Y, are all kept.
    F's bit patterns are ANDed with an int32 keep mask one `BLOCK_BYTES` block
    of rows at a time: a dropped entry is +0.0, never -0.0, and no masked
    store, which is three times slower.  The mask is made in |F|'s scratch,
    from its bits: (cut - 1 - |F|) >> 31 is -1 where |F| >= cut and 0 below,
    with no overflow since both bit patterns are below 0x7F800000.  Y must be
    finite, as the trial loop's coefficient matrices are.  M = 1 is degenerate
    (the (1 - 1/M) share would keep nothing) and keeps every entry.
    """
    k, size = y.shape[0], y.size
    halves = y.reshape(-1).view(np.float32)
    out, mag = halves[:size].reshape(y.shape), halves[size:]
    done = 0
    while done < k:  # rows [done, done + step) of F lie on rows of Y below `done`
        step = min(max(done, 1), k - done)
        np.copyto(out[done : done + step], y[done : done + step])
        done += step
    drop = 0 if m_subspaces == 1 else size // m_subspaces
    if drop:
        np.abs(out.reshape(-1), out=mag)
        mag.view(np.int32).partition(drop)
        below_cut = mag.view(np.int32)[drop] - np.int32(1)
        rows = block_rows(y.shape[1])
        for i in range(0, k, rows):
            block = out[i : i + rows]
            keep = np.abs(block, out=mag[: block.size].reshape(block.shape)).view(np.int32)
            np.subtract(below_cut, keep, out=keep)
            np.right_shift(keep, 31, out=keep)  # -1 (every bit) where |F| >= cut, else 0
            bits = block.view(np.int32)
            np.bitwise_and(bits, keep, out=bits)  # on the bits, so a dropped entry is +0.0
    return out


class FoldedLayout:
    """Where a symmetric n x n matrix's upper triangle sits in one stack row, with no index.

    A row of n(n+1)/2 entries is viewed as a (2h + 1) x c array P, h = n // 2,
    c = n - h (Gustavson et al. 2010's rectangular full packed format):
    P[:h+1] holds g[:h+1, h:], every pair with one end at most h and one at
    least h; P[h+1:]'s lower triangle, diagonal included, holds g[:h, :h],
    the pairs within the first h; and P[h+1:h+c]'s strict upper triangle
    holds g[h+1:, h:]'s, the pairs within the last c - 1.  Since g = g.T
    exactly, P holds each entry of the upper triangle once, for either
    parity of n.  `fold` writes the layout and `unfold` reads it back; the
    strict-upper mask is made once per layout.
    """

    def __init__(self, n: int):
        self.n = n
        self.h = n // 2
        self.c = n - self.h
        self.strict_upper = ~np.tri(self.c - 1, self.c, dtype=bool)

    def fold(self, gram: np.ndarray, row: np.ndarray) -> None:
        """Write symmetric `gram`'s upper triangle into `row`: three block copies."""
        h, c = self.h, self.c
        p = row.reshape(2 * h + 1, c)
        p[: h + 1] = gram[: h + 1, h:]
        p[h + 1 :] = gram[:h, :c]  # its strict upper part is overwritten next
        np.copyto(p[h + 1 : h + c], gram[h + 1 :, h:], where=self.strict_upper)

    def unfold(self, row: np.ndarray) -> np.ndarray:
        """The symmetric float64 n x n matrix whose upper triangle `fold` wrote into `row`."""
        h, c = self.h, self.c
        p = row.reshape(2 * h + 1, c)
        mat = np.empty((self.n, self.n))
        mat[: h + 1, h:] = p[: h + 1]
        mat[h:, : h + 1] = p[: h + 1].T
        first = p[h + 1 :, :h]
        np.copyto(mat[:h, :h], first)
        np.copyto(mat[:h, :h], first.T, where=np.tri(h, k=-1, dtype=bool).T)
        last = p[h + 1 : h + c]
        np.copyto(mat[h + 1 :, h:], last, where=self.strict_upper)
        np.copyto(mat[h:, h + 1 :], last.T, where=self.strict_upper.T)
        return mat


#: widest tile of Gram columns that `median_aggregate` takes from stored factors at once; the
#: tiles are as even as n allows, ceil(n / ceil(n / _TILE)) columns (120 at n = 1200)
_TILE = 128


def _tile_width(n: int) -> int:
    """Columns per tile of `median_aggregate`'s factor path at n columns."""
    return -(-n // -(-n // _TILE))


def _middle(stack: np.ndarray) -> np.ndarray:
    """|median| along axis 0 of `stack`'s t trials, a view of `stack`, which it partitions in place.

    One partition at t // 2 finds the median: for an even t the lower middle is then the largest
    entry below t // 2, and the two middles are averaged.
    """
    t = stack.shape[0]
    stack.partition(t // 2, axis=0)
    mid = stack[t // 2]  # a view: no array of its own at the caller's memory peak
    if t % 2 == 0:
        mid += stack[: t // 2].max(axis=0)
        mid /= 2
    return np.abs(mid, out=mid)


#: widest diagonal tile that `_diagonal_median` medians whole, lower half included
_LEAF = 32


def _diagonal_median(tile: np.ndarray, out: np.ndarray) -> None:
    """Write the median of a (t, b, b) tile of exactly symmetric matrices into `out` (b x b).

    Past `_LEAF` columns only the upper triangle is partitioned: the off-diagonal quadrant and
    its mirror, then each half-width diagonal tile in turn, all as views of `tile`, which is
    partitioned in place.
    """
    b = tile.shape[1]
    if b <= _LEAF:
        out[...] = _middle(tile)
        return
    h = b // 2
    out[:h, h:] = _middle(tile[:, :h, h:])
    out[h:, :h] = out[:h, h:].T
    _diagonal_median(tile[:, :h, :h], out[:h, :h])
    _diagonal_median(tile[:, h:, h:], out[h:, h:])


def _factor_median(factors: np.ndarray) -> np.ndarray:
    """The float64 median of k trials' F.T F from their factors F (k x c x n), one tile at a time."""
    k, _, n = factors.shape
    b = _tile_width(n)
    grams = np.empty((k, b, b), dtype=factors.dtype)  # one tile of every trial's F.T F
    mat = np.empty((n, n))
    for i in range(0, n, b):
        left = factors[:, :, i : i + b].transpose(0, 2, 1)
        for j in range(i, n, b):
            right = factors[:, :, j : j + b]
            tile = grams[:, : left.shape[1], : right.shape[2]]
            np.matmul(left, right, out=tile)  # syrk on the diagonal, as the full F.T @ F
            if j == i:
                _diagonal_median(tile, mat[i : i + b, i : i + b])
            else:
                mat[i : i + b, j : j + b] = _middle(tile)
                mat[j : j + b, i : i + b] = mat[i : i + b, j : j + b].T
    return mat


def median_aggregate(stack: np.ndarray) -> SimilarityMatrix:
    """Entrywise median of k symmetric n x n Gram matrices, then absolute value.

    The matrices come in one of two forms, told apart by `stack.ndim`:
    - 2-D, folded: the packed k x n(n+1)/2 float array whose row i holds
      trial i's upper triangle, folded by `FoldedLayout(n).fold`; `proto`'s
      is float32.  It is partitioned in place, scrambling it, and its row
      k // 2 ends up holding the median, in the stack's dtype, which is
      unfolded into the result by block copies: no index and no loop over
      rows.
    - 3-D, factors: k trials' F (k x c x n), whose Gram matrices F.T F are
      the matrices, in the factors' dtype.  The upper triangle is taken one
      tile of ceil(n / ceil(n / 128)) columns at a time (blocked as in Goto
      and van de Geijn 2008): one batched `np.matmul` gives every trial's
      tile into a reused (k, b, b) buffer, which is partitioned along its
      trial axis, a diagonal tile in its upper triangle only, down to
      diagonal blocks of at most `_LEAF` columns that are taken whole
      (`_diagonal_median`).  The tile and its mirror go into the result, so
      the k Gram matrices are never held, and the factors are not changed.
    Either way `_middle` takes the median once per upper-triangle entry
    (and per lower-triangle entry of those small blocks), along the trial
    axis, in the input's dtype, and the result is a symmetric float64
    matrix.  An even count averages the middle two.  The
    input must be finite, as the trial loops' is: unlike `np.median`, the
    partition does not turn a NaN trial into a NaN median.  The two forms
    give the same bits wherever a tile of `np.matmul`'s F.T F equals that
    tile of the whole product, as it does bit for bit under the OpenBLAS
    builds the tests run on, at one thread or two.
    """
    if stack.ndim == 3:
        return SimilarityMatrix(entries=_factor_median(stack))
    n = (math.isqrt(8 * stack.shape[1] + 1) - 1) // 2  # solves n(n+1)/2 = row length
    return SimilarityMatrix(entries=FoldedLayout(n).unfold(_middle(stack)))


def enforce_diagonal(mat: np.ndarray) -> np.ndarray:
    """Set a square array's diagonal to 1 in place; returns the same array."""
    np.fill_diagonal(mat, 1.0)
    return mat


def normalize_columns(y: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """Scale each column to unit Euclidean norm; zero columns stay zero.

    `norms`, where the caller has them, are y's column norms, to be used in place of
    `np.linalg.norm(y, axis=0)`; they broadcast against y, so a stack of t factors (t x r x n)
    takes its t x 1 x n norms at once.
    """
    if norms is None:
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
