"""Synthetic union-of-subspaces data and the noise-sweep harness.

Subspaces are drawn by orthonormalizing a Gaussian matrix and splitting
its columns, which makes them exactly independent; data points are
sampled uniformly from the unit ball of each subspace and perturbed by
i.i.d. Gaussian noise of a chosen standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cluster import LabelVector, clustering_error
from .linalg import numerical_rank
from .pipeline import ProtoConfig, proto_cluster


@dataclass(frozen=True)
class UnionModel:
    """M independent subspaces given by orthonormal basis matrices."""

    ambient_dim: int
    subspace_dims: tuple
    bases: tuple  # one m x d_i orthonormal matrix per subspace

    @property
    def n_subspaces(self) -> int:
        return len(self.subspace_dims)

    @property
    def total_dim(self) -> int:
        return int(sum(self.subspace_dims))

    def stacked_basis(self) -> np.ndarray:
        return np.hstack(self.bases)


@dataclass(frozen=True)
class SyntheticInstance:
    data: np.ndarray
    truth: LabelVector
    model: UnionModel
    sigma: float


def random_union_model(m: int, dims, seed: int) -> UnionModel:
    """Random independent subspaces of the given dimensions in R^m.

    A Gaussian m x sum(dims) matrix is orthonormalized and its columns
    partitioned into per-subspace bases, so the stacked basis is exactly
    orthonormal and the subspaces are independent by construction.
    """
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError("every subspace dimension must be >= 1")
    total = sum(dims)
    if total > m:
        raise ValueError(f"sum of dims {total} exceeds ambient dimension {m}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, total)))
    bases = []
    offset = 0
    for d in dims:
        bases.append(q[:, offset : offset + d])
        offset += d
    return UnionModel(ambient_dim=m, subspace_dims=dims, bases=tuple(bases))


def _unit_ball(rng: np.random.Generator, d: int, count: int) -> np.ndarray:
    """`count` points uniform in the unit ball of R^d, as a d x count array."""
    g = rng.standard_normal((d, count))
    g /= np.linalg.norm(g, axis=0)
    radii = rng.random(count) ** (1.0 / d)
    return g * radii


def _check_sigma(sigma: float) -> None:
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")


def sample_instance(
    model: UnionModel,
    points_per_subspace,
    sigma: float,
    seed: int,
    shuffle: bool = False,
) -> SyntheticInstance:
    """Draw noisy data from the model's subspaces.

    Coefficients are uniform in the unit ball of each subspace; Gaussian
    noise with standard deviation `sigma` (finite, >= 0) is added to every
    entry.  Columns stay grouped by subspace unless `shuffle` is set.
    """
    _check_sigma(sigma)
    counts = tuple(int(c) for c in points_per_subspace)
    if len(counts) != model.n_subspaces:
        raise ValueError("points_per_subspace length must match the model")
    for c, d in zip(counts, model.subspace_dims):
        if c <= d:
            raise ValueError(
                f"need more points than the subspace dimension (got {c} <= {d})"
            )
    rng = np.random.default_rng(seed)
    blocks, labels = [], []
    for i, (basis, count) in enumerate(zip(model.bases, counts)):
        coeffs = _unit_ball(rng, basis.shape[1], count)
        blocks.append(basis @ coeffs)
        labels.extend([i] * count)
    data = np.hstack(blocks)
    labels = np.asarray(labels, dtype=int)
    data = data + sigma * rng.standard_normal(data.shape)
    if shuffle:
        perm = rng.permutation(data.shape[1])
        data, labels = data[:, perm], labels[perm]
    return SyntheticInstance(
        data=data,
        truth=LabelVector(labels=labels, m_clusters=model.n_subspaces),
        model=model,
        sigma=float(sigma),
    )


def is_independent(model: UnionModel) -> bool:
    """True when the stacked basis carries the full summed dimension."""
    return numerical_rank(model.stacked_basis()) == model.total_dim


def run_sweep(
    case_dims,
    sigmas,
    instances_per_sigma: int,
    proto: ProtoConfig,
    seed: int,
    ambient_dim: int = 300,
    points_per_subspace: int = 50,
) -> list:
    """Per-sigma clustering-error statistics for the noisy pipeline.

    Checks every sigma first, then per noise level generates fresh models
    and instances, runs the multi-trial pipeline and records each clustering
    error.  Returns one record per sigma with mean/median/min/max error.
    """
    if instances_per_sigma < 1:
        raise ValueError("instances_per_sigma must be >= 1")
    for sigma in sigmas:
        _check_sigma(sigma)
    case_dims = tuple(int(d) for d in case_dims)
    records = []
    for si, sigma in enumerate(sigmas):
        errors = []
        for inst in range(instances_per_sigma):
            inst_seed = seed + 100000 * si + inst
            model = random_union_model(ambient_dim, case_dims, inst_seed)
            instance = sample_instance(
                model, [points_per_subspace] * len(case_dims), sigma, inst_seed + 1
            )
            cfg = replace(proto, seed=proto.seed + inst_seed)
            predicted = proto_cluster(instance.data, cfg)
            errors.append(clustering_error(predicted, instance.truth))
        errors = np.asarray(errors)
        records.append(
            {
                "sigma": float(sigma),
                "mean_err": float(errors.mean()),
                "median_err": float(np.median(errors)),
                "min_err": float(errors.min()),
                "max_err": float(errors.max()),
                "n_instances": instances_per_sigma,
                "errors": errors.tolist(),
            }
        )
    return records


#: noise levels used by the reference synthetic experiment
SIGMA_SWEEP = (0.000, 0.001, 0.010, 0.030, 0.050, 0.075, 0.10)

#: subspace dimensions of the two standard synthetic cases
CASE_DIMS = {1: (4, 4), 2: (4, 4, 4)}
