"""curcluster benchmark: one workload per process, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N [--seconds S] [--trace 0|1]

A run builds a fixed list of ops from the seed and runs them back to
back, cycling through the list: a fixed first pass of ops, and more until
`--seconds` have passed.  Set-up (generate the inputs, run one warm-up op)
runs before the first op and again at points spread over the run.  Quality
figures (clustering error, label digest) come from the first pass, so they
repeat exactly for a seed.  With `--trace 1` every op runs three times:
untraced, traced for time and traced with `tracemalloc` for memory; the
per-layer metrics come from the traced copies and the tracing overhead
from comparing the first two.  The last line of stdout is the result as
JSON; the line before it is a report with the figures that are not
metrics.  `--all` runs every workload in a fresh process and prints every
metric with its unit.
"""

import os

# Pinned before numpy loads: with one BLAS thread per process the timings
# measure the code, not the scheduler of a two-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: run-time files: the CLI workload's CSV and outputs, span files
OUT_DIR = ROOT / ".perfbench"
#: set-ups per run, spread over the timed phase; their median is setup_s
SETUPS = 9
#: fewest latency samples for which op_p90_s is reported
P90_MIN_SAMPLES = 100
#: seconds an --all subprocess may take before it is stopped
RUN_TIMEOUT_S = 900


def import_library():
    """Import curcluster from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import curcluster
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import curcluster from {ROOT / 'src'}: {exc}")
    if Path(curcluster.__file__).resolve().parent != ROOT / "src" / "curcluster":
        sys.exit(f"perfbench: curcluster was imported from {curcluster.__file__}, not src/")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def clustering_error_pct(labels, truth, m: int) -> float:
    """Percent misassigned under the best relabeling; independent of the library."""
    best = min(
        int(np.sum(np.asarray(perm)[labels] != truth))
        for perm in itertools.permutations(range(m))
    )
    return 100.0 * best / truth.size


def check(workload, outcome, m: int):
    """Return (ok, error_pct) for one op's outcome."""
    if outcome.exit_code != 0:
        return False, None
    labels = np.asarray(outcome.labels)
    valid = (
        labels.dtype.kind in "iu"
        and labels.shape == outcome.truth.shape
        and outcome.m_clusters == m
        and labels.min() >= 0
        and labels.max() < m
    )
    if not valid:
        return False, None
    error = clustering_error_pct(labels, outcome.truth, m)
    if workload.exact and (error != 0.0 or np.unique(labels).size != m):
        return False, error
    if outcome.reported_error is not None and abs(outcome.reported_error - error) > 1e-9:
        return False, error
    return True, error


def quantile(values, q: float) -> float:
    """Inclusive linear-interpolation quantile, as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    cut = statistics.quantiles(values, n=100, method="inclusive")
    return cut[round(q * 100) - 1]


def run_one(args, bench: dict) -> int:
    from probe import Tracer, layer_metrics
    from workloads import M_SUBSPACES, WARMUP_SEED, WARMUP_TRIALS, WORKLOADS

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    scratch = OUT_DIR / f"{workload.name}-seed{args.seed}"
    # The warm-up input does not depend on --seed, so that setup_s does not
    # vary with how quickly k-means happens to converge on the run's inputs.
    warmup = workload.make_ops(WARMUP_SEED, OUT_DIR / f"{workload.name}-warmup")[0]

    setup_times = []

    def set_up():
        start = time.perf_counter()
        ops = workload.make_ops(args.seed, scratch)
        workload.op(warmup, WARMUP_TRIALS)
        setup_times.append(time.perf_counter() - start)
        return ops

    timing, memory = (Tracer(memory=False), Tracer(memory=True)) if args.trace else (None, None)
    latencies, traced_latencies, memory_latencies, errors = [], [], [], []
    digest = hashlib.sha256()
    attempted = failed = 0

    def attempt(spec, call, times, first_pass):
        nonlocal attempted, failed
        attempted += 1
        try:
            start = time.perf_counter()
            raw = call()
            elapsed = time.perf_counter() - start
            outcome = workload.outcome(spec, raw)
            ok, error = check(workload, outcome, M_SUBSPACES)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, error = False, None
        if not ok:
            failed += 1
            return
        times.append(elapsed)
        if first_pass:
            errors.append(error)
            digest.update(np.ascontiguousarray(outcome.labels, "<i8"))

    # This machine's speed changes for seconds at a time, so set-up is
    # repeated at points spread over the timed phase rather than all at
    # once; the phase clock stops while it runs.
    ops = set_up()
    phase_s = 0.0
    for i in itertools.count():
        if i >= workload.first_pass and phase_s >= args.seconds:
            break
        if len(setup_times) < SETUPS and phase_s >= len(setup_times) * args.seconds / SETUPS:
            set_up()
        op_start = time.perf_counter()
        spec = ops[i % len(ops)]
        first_pass = i < workload.first_pass
        attempt(spec, lambda: workload.op(spec), latencies, first_pass)
        if args.trace:
            attempt(spec, lambda: timing.traced_op(i, lambda: workload.op(spec)),
                    traced_latencies, False)
            attempt(spec, lambda: memory.traced_op(i, lambda: workload.op(spec)),
                    memory_latencies, False)
        phase_s += time.perf_counter() - op_start
    while len(setup_times) < SETUPS:
        set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    correct = failed == 0 and len(errors) == workload.first_pass
    if not latencies:
        latencies = [float("nan")]
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "ops": attempted,
        "latency_samples": len(latencies),
        "ops_per_s": attempted / phase_s,
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": quantile(latencies, 0.9) if len(latencies) >= P90_MIN_SAMPLES else None,
        "error_pct": statistics.fmean(errors) if errors else None,
        "failed_frac": failed / attempted,
        "label_digest": digest.hexdigest()[:16],
        "first_pass_ops": workload.first_pass,
        "distinct_inputs": len(ops),
        "setup_samples_s": setup_times,
        "env": environment(),
    }

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            timing.write(fh)
            memory.write(fh)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["memory_trace_overhead_pct"] = 100.0 * (sum(memory_latencies) / sum(latencies) - 1)
        values = layer_metrics(timing.layer_totals(), memory.layer_totals(),
                               len(traced_latencies), sum(traced_latencies), sum(latencies))
        wanted = bench["per_layer"]
    else:
        values = {
            "op_p10_s": quantile(latencies, 0.10),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, bench: dict) -> int:
    """Every workload in its own process; print each metric with its unit."""
    status = 0
    for name in (w["name"] for w in bench["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                              cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name}: FAILED (exit {proc.returncode})")
            status = 1
            continue
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
        if not args.trace:
            rows += [("ops_per_s", report["ops_per_s"], "1/s"),
                     ("op_p50_s", report["op_p50_s"], "s"),
                     ("error_pct", report["error_pct"], "%"),
                     ("failed_frac", report["failed_frac"], "fraction")]
            if report["op_p90_s"] is not None:
                rows.append(("op_p90_s", report["op_p90_s"], "s"))
        print(f"{name}: correct={result['correct']} ops={result['attempted']} "
              f"latency_samples={report['latency_samples']} digest={report['label_digest']}")
        for metric, value, unit in rows:
            print(f"  {metric:40s} {value:>16.6g} {unit}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload, for the smoke check")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    import_library()
    return run_all(args, bench) if args.all else run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
