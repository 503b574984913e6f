"""Similarity-matrix construction from CUR coefficient matrices.

The coefficient matrix Y = pinv(U) R of a CUR factorization is block
diagonal (up to column permutation) for noise-free union-of-subspaces
data, so the Gram matrix Y.T Y raised to the largest subspace dimension
is an exact similarity matrix.  The noisy pipelines instead combine a
volumetric threshold, column normalization, entrywise medians over many
random factorizations, and elementwise powers; those transforms all live
here as well.  The threshold rounds Y to float32 in place and keeps every
entry at or above its cut, so what it keeps depends on values only.  The
median visits the upper triangle in one walk of blocks, whether the
trials' Gram matrices come as a stack whose rows hold them in that order
or as the trials' factors, whose Gram columns are taken a tile at a time.
A tile's blocks of every trial form one slab, whose median along the
trial axis is a pruned Batcher min/max network up to 32 trials and an
in-place sort past that.

Coefficient matrices are plain k x n numpy arrays; a `SimilarityMatrix`
carries its entries only and validates them where it is built, except
the median's, which is exactly symmetric and nonnegative as built.  The
per-trial kernels take trusted arrays that the library made.
"""

from __future__ import annotations

import functools
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

    @classmethod
    def _unchecked(cls, entries: np.ndarray) -> SimilarityMatrix:
        """A matrix its maker built exactly symmetric and nonnegative, float64, not checked."""
        sim = object.__new__(cls)
        object.__setattr__(sim, "entries", entries)
        return sim


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
    with np.errstate(over="ignore"):  # the check below names d_max, with no warning of its own
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


#: widest tile of `median_aggregate`'s walk; the tiles are as even as n allows,
#: ceil(n / ceil(n / _TILE)) columns (120 at n = 1200)
_TILE = 128

#: widest diagonal block of the walk, which is taken whole, lower half included
_LEAF = 32


def _tile_width(n: int) -> int:
    """Columns per tile of `median_aggregate`'s walk at n columns."""
    return -(-n // -(-n // _TILE))


@functools.cache
def _network(t: int) -> tuple:
    """Comparators (i, j, lo, hi) after which rows (t - 1) // 2 and t // 2 of t rows hold their
    middle order statistics: the row-wise minimum goes to row i and the maximum to row j.

    Batcher's odd-even merge sort (1968) of t rows padded with +inf to a power of two: a
    comparator that touches the padding leaves it in place and is dropped.  Then, walking back
    from the middle rows, only the comparators they depend on are kept (113 at t = 25, 1 at
    t = 2, 330 at t = 50); lo and hi say whether the minimum and the maximum are read later.
    """
    p = 1 << (t - 1).bit_length()
    pairs, size = [], 1
    while size < p:  # merge sorted runs of `size` rows pairwise
        step = size
        while step:
            for j in range(step % size, p - step, 2 * step):
                for i in range(j, j + min(step, p - j - step)):
                    if i // (2 * size) == (i + step) // (2 * size):
                        pairs.append((i, i + step))
            step //= 2
        size *= 2
    need, kept = {(t - 1) // 2, t // 2}, []
    for i, j in reversed(pairs):
        if j < t and (i in need or j in need):
            kept.append((i, j, i in need, j in need))
            need |= {i, j}
    return tuple(reversed(kept))


def _middle(slab: np.ndarray) -> np.ndarray:
    """|median| of the t rows of a (t, L) slab with contiguous rows, which it scrambles.

    Up to 32 rows (where the network has at most 5t comparators) `_network(t)` runs as whole-row
    `np.minimum` / `np.maximum` passes, with one spare row whose reference a two-sided comparator
    swaps for the row it replaced; past 32 the slab is sorted along the trial axis in place, and
    no network is built.  Either way rows t // 2 and t // 2 - 1 then hold the upper and the lower
    middle.  Both kernels pick input entries, so they give the same bits: an even t averages the
    two middles, and the absolute value is taken in place.
    """
    t = len(slab)
    if t <= 32:
        rows, spare = list(slab), np.empty_like(slab[0])
        for i, j, lo, hi in _network(t):
            if lo and hi:
                np.minimum(rows[i], rows[j], out=spare)
                np.maximum(rows[i], rows[j], out=rows[j])
                rows[i], spare = spare, rows[i]
            elif lo:
                np.minimum(rows[i], rows[j], out=rows[i])
            else:
                np.maximum(rows[i], rows[j], out=rows[j])
    else:
        slab.sort(axis=0)  # lane by lane through a buffer of t entries: no slab-sized copy
        rows = slab
    mid, lower = rows[t // 2], rows[t // 2 - 1]  # views: no array at the caller's memory peak
    if t % 2 == 0:
        mid += lower
        mid /= 2
    return np.abs(mid, out=mid)


@functools.cache  # the walk is taken once per trial of the folded stack
def _diagonal_blocks(top: int, width: int) -> tuple:
    """The blocks of a diagonal block `width` wide from `top`: past `_LEAF` columns its
    off-diagonal quadrant, then the blocks of each half in turn."""
    if width <= _LEAF:
        return ((slice(top, top + width),) * 2,)
    half = top + width // 2
    return ((slice(top, half), slice(half, top + width)),
            *_diagonal_blocks(top, width // 2), *_diagonal_blocks(half, top + width - half))


def _blocks(n: int):
    """The median's walk of an n x n matrix's upper triangle: (rows, cols, blocks) per tile.

    Tiles are `_tile_width(n)` square, row of tiles by row of tiles, each from the diagonal
    rightwards (blocked as in Goto and van de Geijn 2008).  A tile's blocks are (rows, cols)
    slices within it: an off-diagonal tile is one block, and a diagonal tile is halved down to
    diagonal blocks of at most `_LEAF` columns (`_diagonal_blocks`).  Each upper-triangle entry
    is in one block, and so is each lower-triangle entry of those small diagonal blocks.
    """
    b = _tile_width(n)
    for i in range(0, n, b):
        for j in range(i, n, b):
            h, w = min(b, n - i), min(b, n - j)
            blocks = _diagonal_blocks(0, w) if i == j else ((slice(0, h), slice(0, w)),)
            yield slice(i, i + h), slice(j, j + w), blocks


def _row_length(n: int) -> int:
    """Entries in one trial's row of the stack: every block of the walk (12,657 at n = 150,
    where the upper triangle is 11,325)."""
    return sum((rs.stop - rs.start) * (cs.stop - cs.start)
               for _, _, blocks in _blocks(n) for rs, cs in blocks)


def fold(gram: np.ndarray, row: np.ndarray) -> None:
    """Copy exactly symmetric `gram`'s blocks into one stack row, in the order of the walk."""
    end = 0
    for rows, cols, blocks in _blocks(len(gram)):
        tile = gram[rows, cols]
        for rs, cs in blocks:
            part = tile[rs, cs]
            start, end = end, end + part.size
            row[start:end].reshape(part.shape)[...] = part


def median_aggregate(trials: np.ndarray, n: int | None = None) -> SimilarityMatrix:
    """Entrywise median of t symmetric n x n Gram matrices, then absolute value.

    Both forms of the matrices, told apart by `trials.ndim`, are taken tile by tile along one
    walk of the upper triangle (`_blocks`), each tile as one (t, L) slab of its L block entries:
    - 2-D, a stack: row i holds trial i's blocks as `fold` copies them, `_row_length(n)`
      entries for the caller's n (`proto`'s stack is float32).  A tile's slab is the tile's
      range of every row, a view of the stack, which the median scrambles.
    - 3-D, factors: t trials' F (t x c x n), whose Gram matrices F.T F are the matrices, in the
      factors' dtype.  Each block's batched `np.matmul` writes every trial's block into its
      range of a reused slab of t b^2 entries (numpy's syrk on the small diagonal blocks): the
      t Gram matrices are never held, and the factors are not changed.
    `_middle` takes each slab's median along the trial axis, in the input's dtype, and each
    block and its mirror go into the float64 result, which is thus exactly symmetric and, as an
    absolute value, nonnegative: it is not checked again.  An even count averages the middle
    two.  The input must be finite, as the trial loops' is: unlike `np.median`, neither kernel
    turns a NaN trial into a NaN median.  The two forms give the same bits wherever a block of
    `np.matmul`'s F.T F equals that block of the whole product, as it does bit for bit under the
    OpenBLAS builds the tests run on, at one thread or two.
    """
    t = len(trials)
    factors = trials.ndim == 3
    if factors:
        n, b = trials.shape[2], _tile_width(trials.shape[2])
        grams = np.empty(t * b * b, dtype=trials.dtype)  # one tile of every F.T F, as a slab
    mat, end = np.empty((n, n)), 0
    for rows, cols, blocks in _blocks(n):
        upper, lower = mat[rows, cols], mat[cols, rows]
        parts, length = [], 0  # (rows, cols, shape, range in the slab) per block
        for rs, cs in blocks:
            shape = upper[rs, cs].shape
            parts.append((rs, cs, shape, slice(length, length + shape[0] * shape[1])))
            length += shape[0] * shape[1]
        if factors:
            slab = grams[: t * length].reshape(t, length)
            for rs, cs, shape, span in parts:
                np.matmul(trials[:, :, rows][:, :, rs].transpose(0, 2, 1),
                          trials[:, :, cols][:, :, cs], out=slab[:, span].reshape(t, *shape))
        else:
            start, end = end, end + length
            slab = trials[:, start:end]
        mid = _middle(slab)
        for rs, cs, shape, span in parts:
            part = mid[span].reshape(shape)
            upper[rs, cs] = part
            lower[cs, rs] = part.T
    return SimilarityMatrix._unchecked(mat)


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
    with np.errstate(over="ignore"):  # the check below names alpha, with no warning of its own
        entries **= alpha
    if not np.isfinite(entries).all():
        raise ValueError(f"alpha={alpha} overflows float64 in the elementwise power")
    return sim


def sim_baseline(w, r: int) -> SimilarityMatrix:
    """Shape-interaction baseline |V_r V_r.T|, exactly symmetric, from the data's skinny SVD."""
    right = skinny_svd(w, r).right
    return SimilarityMatrix(entries=np.abs(right @ right.T))
