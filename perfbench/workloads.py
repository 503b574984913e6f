"""The benchmark's workloads: seeded inputs, one op each, and what it returns.

Set-up makes a pool of distinct inputs from the seed; a run cycles through
it.  Its first `first_pass` ops are always run and give the quality
figures; the pool is larger than that where inputs are cheap, so that the
timings of one run average over many inputs rather than over a few.

Inputs for `rcur_case2`, `proto_n1200` and `cli_exact_n300` are generated
here rather than by `curcluster.synth`, so a change to the library's
generator cannot change what those workloads measure.  `sweep_case2` calls
`synth.run_sweep`, which generates its own instance; that generation is part
of the op on purpose.
"""

from __future__ import annotations

import contextlib
import functools
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from curcluster import cli, pipeline, synth
from curcluster.pipeline import ProtoConfig, RcurConfig

#: Case 2 of the paper: three independent 4-dimensional subspaces of R^300
CASE2_DIMS = (4, 4, 4)
AMBIENT_DIM = 300
M_SUBSPACES = len(CASE2_DIMS)
CLEAN_RANK = sum(CASE2_DIMS)

#: the paper's noise ladder, cycled by sweep_case2
SIGMAS = (0.000, 0.001, 0.010, 0.030, 0.050, 0.075, 0.10)

#: CUR trials of the warm-up op that set-up runs (the exact path has none)
WARMUP_TRIALS = 2
#: seed of the warm-up op's input, the same for every run
WARMUP_SEED = 0


@dataclass(frozen=True)
class Outcome:
    """What an op produced, reduced to what the checks need."""

    labels: np.ndarray
    m_clusters: int
    truth: np.ndarray
    reported_error: float | None = None  # error the library itself reported
    exit_code: int = 0


def union_instance(rng: np.random.Generator, points: int, sigma: float):
    """Case 2 data with `points` columns per subspace, plus Gaussian noise.

    Bases come from orthonormalizing a Gaussian matrix, so the subspaces
    are independent; coefficients are uniform in each unit ball.  Columns
    stay grouped by subspace.  Returns (data, truth labels).
    """
    basis, _ = np.linalg.qr(rng.standard_normal((AMBIENT_DIM, CLEAN_RANK)))
    blocks, truth, offset = [], [], 0
    for label, dim in enumerate(CASE2_DIMS):
        coeffs = rng.standard_normal((dim, points))
        coeffs *= rng.random(points) ** (1.0 / dim) / np.linalg.norm(coeffs, axis=0)
        blocks.append(basis[:, offset : offset + dim] @ coeffs)
        truth += [label] * points
        offset += dim
    data = np.hstack(blocks)
    data += sigma * rng.standard_normal(data.shape)
    return data, np.asarray(truth)


def _derived_seeds(rng: np.random.Generator, count: int) -> list:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


class SweepCase2:
    """One instance of the paper's noise experiment per op (n=150)."""

    name = "sweep_case2"
    exact = False

    def __init__(self, tiny: bool):
        self.points = 8 if tiny else 50
        self.trials = 3 if tiny else 25
        self.first_pass = len(SIGMAS) * (1 if tiny else 3)
        self.pool = len(SIGMAS) * (1 if tiny else 30)
        self._labels, self._instances = [], []
        # run_sweep returns only error statistics; keep what it computed
        # on, so the labels can be checked and digested.
        synth.proto_cluster = self._keep(synth.proto_cluster, self._labels)
        synth.sample_instance = self._keep(synth.sample_instance, self._instances)

    @staticmethod
    def _keep(fn, results):
        @functools.wraps(fn)
        def keeping(*args, **kwargs):
            result = fn(*args, **kwargs)
            results.append(result)
            return result

        return keeping

    def make_ops(self, seed: int, scratch: Path) -> list:
        seeds = _derived_seeds(np.random.default_rng(seed), self.pool)
        return [(SIGMAS[i % len(SIGMAS)], s) for i, s in enumerate(seeds)]

    def op(self, spec, trials: int | None = None):
        sigma, seed = spec
        del self._labels[:], self._instances[:]
        config = ProtoConfig(
            M_SUBSPACES, CLEAN_RANK, n_trials=trials or self.trials, backend="pcc"
        )
        return synth.run_sweep(
            CASE2_DIMS, [sigma], 1, config, seed=seed, points_per_subspace=self.points
        )

    def outcome(self, spec, records) -> Outcome:
        (labels,), (instance,) = self._labels, self._instances
        return Outcome(
            labels=labels.labels,
            m_clusters=labels.m_clusters,
            truth=instance.truth.labels,
            reported_error=records[0]["errors"][0],
        )


class RcurCase2:
    """The rank sweep r in [2, 14] with 50 trials per rank (n=150, sigma=0.05)."""

    name = "rcur_case2"
    exact = False

    def __init__(self, tiny: bool):
        self.points = 8 if tiny else 50
        self.trials = 3 if tiny else 50
        self.r_max = 5 if tiny else 14
        self.first_pass = 1 if tiny else 3
        self.pool = 1 if tiny else 10

    def make_ops(self, seed: int, scratch: Path) -> list:
        rng = np.random.default_rng(seed)
        return [union_instance(rng, self.points, 0.05) for _ in range(self.pool)]

    def op(self, spec, trials: int | None = None):
        config = RcurConfig(2, self.r_max, 2.0, n_trials=trials or self.trials)
        return pipeline.rcur_cluster(spec[0], M_SUBSPACES, config)

    def outcome(self, spec, result) -> Outcome:
        return Outcome(result.labels.labels, result.labels.m_clusters, spec[1])


class ProtoN1200:
    """proto with pcc on Case 2 at 400 points per subspace (n=1200, sigma=0.05)."""

    name = "proto_n1200"
    exact = False

    def __init__(self, tiny: bool):
        self.points = 20 if tiny else 400
        self.trials = 3 if tiny else 25
        self.first_pass = 1
        self.pool = 1 if tiny else 3

    def make_ops(self, seed: int, scratch: Path) -> list:
        rng = np.random.default_rng(seed)
        return [union_instance(rng, self.points, 0.05) for _ in range(self.pool)]

    def op(self, spec, trials: int | None = None):
        config = ProtoConfig(
            M_SUBSPACES, CLEAN_RANK, n_trials=trials or self.trials, backend="pcc"
        )
        return pipeline.proto_cluster(spec[0], config)

    def outcome(self, spec, labels) -> Outcome:
        return Outcome(labels.labels, labels.m_clusters, spec[1])


class CliExactN300:
    """`curcluster cluster --algo exact` on a noise-free 300x300 Case 2 CSV."""

    name = "cli_exact_n300"
    exact = True

    def __init__(self, tiny: bool):
        self.points = 10 if tiny else 100
        self.first_pass = 1

    def make_ops(self, seed: int, scratch: Path) -> list:
        data, truth = union_instance(np.random.default_rng(seed), self.points, 0.0)
        scratch.mkdir(parents=True, exist_ok=True)
        csv = scratch / "data.csv"
        np.savetxt(csv, data, fmt="%.17g", delimiter=",")
        np.savetxt(scratch / "data.labels", truth, fmt="%d")
        return [(csv, scratch / "out", truth)]

    def op(self, spec, trials: int | None = None):
        csv, out, _ = spec
        argv = ["cluster", str(csv), "--algo", "exact", "--dmax", "4", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def outcome(self, spec, exit_code) -> Outcome:
        _, out, truth = spec
        if exit_code != 0:
            return Outcome(np.empty(0, dtype=int), 0, truth, exit_code=exit_code)
        labels = np.loadtxt(f"{out}.labels", dtype=int, ndmin=1)
        return Outcome(labels, int(labels.max()) + 1, truth)


WORKLOADS = {w.name: w for w in (SweepCase2, RcurCase2, ProtoN1200, CliExactN300)}
