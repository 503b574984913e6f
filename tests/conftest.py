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
    """Upper triangles of k symmetric n x n matrices, one folded row each: the median's stack."""
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[1]
    stack = np.empty((len(mats), n * (n + 1) // 2))
    layout = simgen.FoldedLayout(n)
    for mat, row in zip(mats, stack):
        layout.fold(mat, row)
    return stack


def threshold(y, m):
    """`simgen.threshold_volumetric` of a copy of y, which it spends: y's float32 F."""
    return simgen.threshold_volumetric(y.copy(), m)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
