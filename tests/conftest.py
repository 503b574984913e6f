import numpy as np
import pytest

from curcluster import random_union_model, sample_instance, simgen


def union_instance(seed, m=30, max_subspaces=4, max_dim=4, extra_points=3, sigma=0.0):
    """Random noise-free union-of-subspaces instance for the test suites.

    Subspace count and dimensions are drawn from the seed; each subspace
    contributes d_i + extra_points points.
    """
    rng = np.random.default_rng(seed)
    n_sub = int(rng.integers(2, max_subspaces + 1))
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(n_sub)]
    while sum(dims) > m:
        dims = dims[:-1]
    model = random_union_model(m, dims, seed + 1)
    instance = sample_instance(
        model, [d + extra_points for d in dims], sigma, seed + 2
    )
    return instance


def pack(mats):
    """Upper triangles of k symmetric n x n matrices, one row each: the median's packed stack."""
    mats = np.asarray(mats, dtype=float)
    return mats[(slice(None), *np.triu_indices(mats.shape[1]))]


def threshold(y, m):
    """`simgen.threshold_volumetric` in a fresh workspace of y's shape: y's float32 F."""
    return simgen.threshold_volumetric(y, m, np.empty(y.shape))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
