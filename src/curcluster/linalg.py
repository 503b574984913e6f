"""Dense linear-algebra primitives shared by the rest of the package.

`as_matrix`, the package's only input validator (no NaN/Inf is ever
admitted), runs where data enters the package: the public routines here
call it, the private helpers take trusted arrays.  The numerical-rank
convention used everywhere is a singular value cutoff of
``RANK_TOL * max(m, n)`` relative to the largest singular value; `cur`
and `simgen` rely on this being a single shared constant.  The CUR
sampler cuts the one SVD of U it takes per draw with `_rank_cutoff` and
returns it, not Y; `proto`'s trial applies `_pinv_from_svd` to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative singular-value cutoff; effective tolerance is
# RANK_TOL * max(m, n) * sigma_1.
RANK_TOL = 1e-10

# Entries of a similarity matrix below BINARIZE_TOL * max|entry| are
# treated as zero when binarizing or extracting graph edges.
BINARIZE_TOL = 1e-9


def as_matrix(a) -> np.ndarray:
    """Validate and return `a` as a 2-d float array with finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix must be nonempty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def _rank_cutoff(s: np.ndarray, shape) -> float:
    """Absolute singular-value cutoff for a matrix of the given shape."""
    if s.size == 0:
        return 0.0
    return RANK_TOL * max(shape) * s[0]


@dataclass(frozen=True)
class SvdTriple:
    """Skinny SVD: ``left @ diag(singulars) @ right.T`` approximates A.

    `left` is m x r with orthonormal columns, `right` is n x r with
    orthonormal columns, and `singulars` is positive and nonincreasing.
    """

    left: np.ndarray
    singulars: np.ndarray
    right: np.ndarray

    @property
    def rank(self) -> int:
        return self.singulars.size

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singulars) @ self.right.T


def skinny_svd(a, r: int) -> SvdTriple:
    """Top-`r` singular triplet of `a`.

    If rank(a) > r this is the best rank-r approximation in Frobenius
    norm.  Singular values below the rank cutoff are dropped, so the
    returned rank may be smaller than requested.
    """
    a = as_matrix(a)
    if not 1 <= r <= min(a.shape):
        raise ValueError(f"r={r} out of range for shape {a.shape}")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = min(r, int(np.sum(s > _rank_cutoff(s, a.shape))))
    return SvdTriple(left=u[:, :keep], singulars=s[:keep], right=vt[:keep].T)


def pinv(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below the shared rank cutoff are treated as zero, so
    pinv(0) = 0.  The result satisfies all four Penrose conditions to
    roughly 1e-9 relative accuracy.
    """
    a = as_matrix(a)
    return _pinv_from_svd(*np.linalg.svd(a, full_matrices=False))


def _pinv_from_svd(u: np.ndarray, s: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """Pseudoinverse of the matrix whose skinny SVD is (u, s, vt)."""
    cutoff = _rank_cutoff(s, (u.shape[0], vt.shape[1]))
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (vt.T * inv) @ u.T


def numerical_rank(a) -> int:
    """Number of singular values above the shared relative cutoff."""
    a = as_matrix(a)
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > _rank_cutoff(s, a.shape)))


def nuclear_norm(a) -> float:
    """Sum of all singular values of `a`."""
    a = as_matrix(a)
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def matrix_power(a, p: int) -> np.ndarray:
    """p-fold matrix product of a square matrix, p >= 1."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix_power requires a square matrix, got {a.shape}")
    if p < 1:
        raise ValueError(f"power must be >= 1, got {p}")
    return np.linalg.matrix_power(a, p)
