"""Ablation of the criterion-8b/8c high-noise sweep over protocol choices.

Criteria 8b and 8c run the proto pipeline with the spectral back-end at
sigma = 0.1 on Case 1 (two 4-dim subspaces) and Case 2 (three 4-dim
subspaces) in R^300, 50 points per subspace, 20 instances, 25 trials,
sweep seed 0.  This script reruns that sweep as shipped and once per
variant of the protocol, and prints the mean clustering error of each as
a markdown table next to the published reference bands (Case 1: 12 +/- 10,
Case 2: 40 +/- 10).

A variant swaps module attributes of the library for the length of one
sweep and restores them afterwards; nothing under src/ is changed.  Every
sweep is deterministic, so a rerun prints the same table.

Run from the repository root (a few minutes; every sweep is single-process):

    PYTHONPATH=src python3 scripts/ablate_8c.py
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np

from curcluster import cluster, simgen, synth
from curcluster.cluster import LabelVector
from curcluster.pipeline import ProtoConfig, proto_similarity
from curcluster.synth import CASE_DIMS, run_sweep

#: published reference mean error (%) per case; both bands are +/- 10
BANDS = {1: 12.0, 2: 40.0}
HALF_WIDTH = 10.0


def sweep_mean(case: int, sigma: float = 0.1, rows_per_trial=None, seed: int = 0) -> float:
    """Mean error of the acceptance-suite sweep (tests/test_acceptance.py::_sweep)."""
    dims = CASE_DIMS[case]
    if rows_per_trial is None:
        rows_per_trial = 8 if case == 1 else None
    cfg = ProtoConfig(
        m_subspaces=len(dims),
        target_rank=sum(dims),
        n_trials=25,
        rows_per_trial=rows_per_trial,
        backend="spectral",
        seed=0,
    )
    return run_sweep(dims, [sigma], 20, cfg, seed=seed)[0]["mean_err"]


@contextlib.contextmanager
def patched(patches):
    """Set (module, name, value) attributes, restoring the originals on exit."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, value in patches:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def shipped_keep(m_subspaces):
    """Share of entries the shipped volumetric threshold keeps."""
    return 1.0 - 1.0 / m_subspaces


def minority_keep(m_subspaces):
    return 1.0 / m_subspaces


def threshold(keep_fraction, per_column=False, latest_first=False):
    """Volumetric threshold keeping keep_fraction(M) of the entries.

    Global (the shipped rule) or per column; ties at the cut go to the
    earliest row-major position, or to the latest with `latest_first`.
    """

    def apply(y, m_subspaces):
        mag = np.abs(y)
        if per_column:
            keep = math.ceil(keep_fraction(m_subspaces) * y.shape[0])
            rows = np.argsort(-mag, axis=0, kind="stable")[:keep]
            mask = np.zeros(y.shape, dtype=bool)
            np.put_along_axis(mask, rows, True, axis=0)
        else:
            keep = math.ceil(keep_fraction(m_subspaces) * y.size)
            flat = mag.ravel()
            if latest_first:
                order = flat.size - 1 - np.argsort(-flat[::-1], kind="stable")
            else:
                order = np.argsort(-flat, kind="stable")
            mask = np.zeros(flat.size, dtype=bool)
            mask[order[:keep]] = True
            mask = mask.reshape(y.shape)
        return np.where(mask, y, 0.0)

    return apply


def spectral(self_loops=False, normalized=True, unit_rows=True, power=1.0):
    """The spectral back-end of curcluster.cluster with one convention changed.

    With the defaults it computes exactly what `cluster.spectral_cluster`
    computes (checked by `check_spectral_reference`).
    """

    def apply(sim, m_clusters, seed):
        s = sim.entries**power
        if not self_loops:
            np.fill_diagonal(s, 0.0)
        degrees = np.maximum(s.sum(axis=1), 1e-12)
        if normalized:
            d_isqrt = 1.0 / np.sqrt(degrees)
            a = d_isqrt[:, None] * s * d_isqrt[None, :]
            embedding = np.linalg.eigh(0.5 * (a + a.T))[1][:, -m_clusters:]
        else:
            laplacian = np.diag(degrees) - s
            embedding = np.linalg.eigh(0.5 * (laplacian + laplacian.T))[1][:, :m_clusters]
        if unit_rows:
            norms = np.linalg.norm(embedding, axis=1)
            embedding = embedding / np.where(norms < 1e-14, 1.0, norms)[:, None]
        return cluster.kmeans(embedding, m_clusters, seed)

    return apply


def random_labels(w, config):
    """Uniformly random labels: the chance level of the error metric."""
    rng = np.random.default_rng(config.seed)
    return LabelVector(labels=rng.integers(0, config.m_subspaces, w.shape[1]),
                       m_clusters=config.m_subspaces)


#: (setting, keyword arguments of sweep_mean, attribute patches)
VARIANTS = [
    ("as shipped", {}, []),
    ("sweep seed 1", {"seed": 1}, []),
    ("sweep seed 2", {"seed": 2}, []),
    ("sweep seed 3", {"seed": 3}, []),
    ("columns shuffled (`sample_instance(shuffle=True)`)", {},
     [(synth, "sample_instance", functools.partial(synth.sample_instance, shuffle=True))]),
    ("threshold ties broken by latest position", {},
     [(simgen, "threshold_volumetric", threshold(shipped_keep, latest_first=True))]),
    ("threshold keeps ⌈kn/M⌉ instead of ⌈(1−1/M)kn⌉", {},
     [(simgen, "threshold_volumetric", threshold(minority_keep))]),
    ("per-column threshold, keep 1−1/M", {},
     [(simgen, "threshold_volumetric", threshold(shipped_keep, per_column=True))]),
    ("per-column threshold, keep 1/M", {},
     [(simgen, "threshold_volumetric", threshold(minority_keep, per_column=True))]),
    ("self-loops kept in `spectral_cluster`", {},
     [(cluster, "spectral_cluster", spectral(self_loops=True))]),
    ("self-loops kept + keep ⌈kn/M⌉", {},
     [(cluster, "spectral_cluster", spectral(self_loops=True)),
      (simgen, "threshold_volumetric", threshold(minority_keep))]),
    ("k-means restarts 1 (20 shipped)", {},
     [(cluster, "kmeans", functools.partial(cluster.kmeans, restarts=1))]),
    ("k-means restarts 5 (20 shipped)", {},
     [(cluster, "kmeans", functools.partial(cluster.kmeans, restarts=5))]),
    ("embedding rows not unit-normalized", {},
     [(cluster, "spectral_cluster", spectral(unit_rows=False))]),
    ("affinity squared", {},
     [(cluster, "spectral_cluster", spectral(power=2.0))]),
    ("unnormalized Laplacian", {},
     [(cluster, "spectral_cluster", spectral(normalized=False))]),
    ("`rows_per_trial` 16", {"rows_per_trial": 16}, []),
    ("`rows_per_trial` 24", {"rows_per_trial": 24}, []),
    ("σ = 0.11", {"sigma": 0.11}, []),
    ("σ = 0.12", {"sigma": 0.12}, []),
    ("σ = 0.13", {"sigma": 0.13}, []),
    ("σ = 0.15", {"sigma": 0.15}, []),
    ("random labels (chance)", {}, [(synth, "proto_cluster", random_labels)]),
]


def check_spectral_reference():
    """Fail unless `spectral()` with its defaults matches the library back-end."""
    model = synth.random_union_model(300, CASE_DIMS[2], 0)
    inst = synth.sample_instance(model, (50, 50, 50), 0.1, 1)
    cfg = ProtoConfig(m_subspaces=3, target_rank=12, backend="spectral")
    sim = proto_similarity(inst.data, cfg)
    shipped = cluster.spectral_cluster(sim, 3, 0).labels
    if not np.array_equal(spectral()(sim, 3, 0).labels, shipped):
        raise SystemExit("spectral() no longer matches cluster.spectral_cluster")


def in_band(case: int, mean: float) -> bool:
    return abs(mean - BANDS[case]) <= HALF_WIDTH


def main():
    check_spectral_reference()
    print("| setting | Case 1 | Case 2 | both in band |")
    print("|---|---|---|---|")
    for label, kwargs, patches in VARIANTS:
        with patched(patches):
            means = {case: sweep_mean(case, **kwargs) for case in (1, 2)}
        both = "yes" if all(in_band(c, m) for c, m in means.items()) else "no"
        print(f"| {label} | {means[1]:.1f} | {means[2]:.1f} | {both} |", flush=True)


if __name__ == "__main__":
    main()
