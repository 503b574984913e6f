"""Spans around curcluster's public functions, recorded from outside.

The library's modules import names from each other directly (`pipeline`
holds its own `cur_sample` and `pinv`, `cur` its own `numerical_rank`, and
so on), so wrapping a function in its home module alone would miss most
calls.  `Tracer.install` therefore replaces every binding of each target in
every curcluster module, and `uninstall` puts the originals back.  Nothing
in the library changes, and an untraced op runs the library unwrapped.

Each span records its name, start, end, parent span and op id, the bytes
of its array arguments (numpy kernels only; computed from shapes, not
measured traffic) and, in a tracer made with `memory=True`, its peak of
traced memory above the level at entry, taken from `tracemalloc`.
`tracemalloc` slows every allocation (the CLI's CSV parser about fivefold),
so times come from a tracer without it and peaks from a second one with it.
Spans are kept in memory and written out at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from curcluster import cli, cluster, cur, linalg, pipeline, simgen, synth

MODULES = (linalg, cur, simgen, cluster, pipeline, synth, cli)

#: (span name, owner, attribute) of every function the tracer wraps
TARGETS = tuple(
    (f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}", owner, attr)
    for owner, attrs in (
        (linalg, ("as_matrix", "numerical_rank", "pinv", "skinny_svd", "matrix_power")),
        (cur, ("cur_sample", "select_uniform")),
        (
            simgen,
            (
                "coefficient_matrix",
                "threshold_volumetric",
                "median_aggregate",
                "normalize_columns",
                "enforce_diagonal",
                "elementwise_power",
                "similarity_noise_free",
            ),
        ),
        (
            cluster,
            (
                "kmeans",
                "spectral_cluster",
                "pcc_cluster",
                "connected_components",
                "ncut_value",
                "clustering_error",
            ),
        ),
        (pipeline, ("proto_similarity", "proto_cluster", "rcur_cluster", "cluster_noise_free")),
        (synth, ("random_union_model", "sample_instance", "run_sweep")),
        (cli, ("load_csv", "main")),
    )
    for attr in attrs
) + (
    # validation of every similarity matrix the library builds
    ("simgen.SimilarityMatrix.validate", simgen.SimilarityMatrix, "__post_init__"),
)

#: numpy kernels, wrapped where the library looks them up (`np.linalg.*`)
KERNELS = (
    ("linalg.svd_kernel", np.linalg, "svd"),
    ("linalg.eigh_kernel", np.linalg, "eigh"),
)

OP_SPAN = "op"


class Tracer:
    """Records nested spans of wrapped calls, grouped by op."""

    def __init__(self, memory: bool):
        self.memory = memory
        # [op, name, start, end, parent, peak bytes, bytes in]
        self.spans = []
        self._stack = []  # indices of open spans
        self._peaks = []  # traced-memory high-water mark of each open span
        self._patched = []  # (owner, attr, previous value)
        self._op = -1

    def _enter(self, name: str, nbytes: int = 0) -> int:
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._peaks:
                self._peaks[-1] = max(self._peaks[-1], peak)
            tracemalloc.reset_peak()
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._op, name, 0.0, 0.0, parent, current, nbytes])
        self._stack.append(index)
        self._peaks.append(current)
        self.spans[index][2] = time.perf_counter()
        return index

    def _exit(self) -> None:
        end = time.perf_counter()
        span = self.spans[self._stack.pop()]
        span[3] = end
        top = self._peaks.pop()
        if self.memory:
            top = max(top, tracemalloc.get_traced_memory()[1])
            span[5] = top - span[5]
            tracemalloc.reset_peak()
        if self._peaks:
            self._peaks[-1] = max(self._peaks[-1], top)

    def _wrap(self, name: str, fn, kernel: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nbytes = sum(a.nbytes for a in args if isinstance(a, np.ndarray)) if kernel else 0
            self._enter(name, nbytes)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every binding of every target and kernel."""
        for name, owner, attr in TARGETS + KERNELS:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, kernel=owner is np.linalg)
            self._patch(owner, attr, wrapped)
            for module in MODULES:
                for binding, value in list(vars(module).items()):
                    # a binding may hold the original or a benchmark hook
                    # around it (functools.wraps sets __wrapped__)
                    if value is not wrapped and (
                        value is original or getattr(value, "__wrapped__", None) is original
                    ):
                        self._patch(module, binding, self._wrap(name, value, kernel=False))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def traced_op(self, op_id: int, call):
        """Run `call()` as op `op_id` with the wrappers (and tracemalloc) on."""
        self._op = op_id
        self.install()
        if self.memory:
            tracemalloc.start()
        self._enter(OP_SPAN)
        try:
            return call()
        finally:
            self._exit()
            if self.memory:
                tracemalloc.stop()
            self.uninstall()

    def write(self, fh) -> None:
        """Append the spans to an open text file, one JSON object per line."""
        keys = ("op", "name", "start", "end", "parent", "peak_bytes", "bytes_in")
        for span in self.spans:
            record = dict(zip(keys, span), memory=self.memory)
            fh.write(json.dumps(record) + "\n")

    def layer_totals(self) -> dict:
        """Per span name: calls, self seconds, max peak bytes, bytes in.

        Self time is a span's duration minus the durations of its direct
        children; children never overlap, since the library is
        single-threaded.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span[4] >= 0:
                child_time[span[4]] += span[3] - span[2]
        totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "peak_bytes": 0, "bytes_in": 0})
        for index, (_, name, start, end, _, peak, nbytes) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            entry["peak_bytes"] = max(entry["peak_bytes"], peak)
            entry["bytes_in"] += nbytes
        return dict(totals)


def layer_metrics(totals: dict, peaks: dict, traced_ops: int, traced_s: float,
                  untraced_s: float) -> dict:
    """Per-op figures of each span name, plus the trace's own figures.

    `totals` comes from the timing tracer, `peaks` from the memory tracer.
    """
    ops = max(traced_ops, 1)
    values = {}
    for name, entry in totals.items():
        values[f"{name}.calls"] = entry["calls"] / ops
        values[f"{name}.self_s"] = entry["self_s"] / ops
        values[f"{name}.bytes_in"] = entry["bytes_in"] / ops
    for name, entry in peaks.items():
        values[f"{name}.peak_mb"] = entry["peak_bytes"] / 2**20
    samples = totals.get("cur.cur_sample", {}).get("calls", 0)
    if samples:
        values["cur.attempts_per_sample"] = totals["cur.select_uniform"]["calls"] / samples
    root_s = totals[OP_SPAN]["self_s"] if OP_SPAN in totals else 0.0
    op_s = sum(entry["self_s"] for entry in totals.values())
    values["trace.op_s"] = op_s / ops
    values["trace.accounted_pct"] = 100.0 * (op_s - root_s) / op_s if op_s else 0.0
    values["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0) if untraced_s else 0.0
    return values
