"""Smoke check of the benchmark at tiny sizes; not part of the test suite.

    python3 perfbench/smoke.py

Runs every workload shrunk (`--tiny`, one pass over its ops), with and
without tracing, and checks the result line against BENCHMARK.json, that
labels and errors repeat for a seed, and that the benchmark refuses to run
without the library.  Takes about ten seconds; exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIMEOUT_S = 180


def require(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"smoke check failed: {message}")


def run(script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=TIMEOUT_S, cwd=script.parent.parent)


def run_workload(name: str, seed: int, trace: int):
    proc = run(HERE / "run.py", "--workload", name, "--seed", str(seed),
               "--seconds", "0", "--trace", str(trace), "--tiny")
    require(proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return report, result


def check_result(name: str, result: dict, wanted: list) -> None:
    require(set(result) == RESULT_KEYS, f"{name}: result keys {sorted(result)}")
    require(result["correct"] is True and result["failed"] == 0, f"{name}: {result}")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1,
            f"{name}: attempted {result['attempted']}")
    require(list(result["metrics"]) == [m["name"] for m in wanted], f"{name}: metric names")
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        require(entry["unit"] == metric["unit"], f"{name}: unit of {metric['name']}")
        require(isinstance(entry["value"], float) and math.isfinite(entry["value"]),
                f"{name}: value of {metric['name']}")


def check_per_layer_names(bench: dict) -> None:
    """Every per-layer metric must name a span the tracer records."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from probe import KERNELS, OP_SPAN, TARGETS

    spans = {name for name, _, _ in TARGETS + KERNELS} | {OP_SPAN}
    derived = {"cur.attempts_per_sample", "trace.op_s", "trace.accounted_pct",
               "trace.overhead_pct"}
    for metric in bench["per_layer"]:
        name = metric["name"]
        require(name in derived or name.rsplit(".", 1)[0] in spans, f"unknown span in {name}")


def check_refuses_without_library(bench_json: Path) -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench_json, bare / bench_json.name)
    proc = run(bare / HERE.name / "run.py", "--workload", "sweep_case2", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    require(proc.returncode != 0 and not proc.stdout.strip(), "ran without the library")


def main() -> int:
    bench_json = ROOT / "BENCHMARK.json"
    bench = json.loads(bench_json.read_text())
    check_per_layer_names(bench)
    for workload in (w["name"] for w in bench["workloads"]):
        first, result = run_workload(workload, seed=3, trace=0)
        check_result(workload, result, bench["end_to_end"])
        again, _ = run_workload(workload, seed=3, trace=0)
        for key in ("label_digest", "error_pct"):
            require(first[key] == again[key], f"{workload}: {key} differs between runs")
        traced, result = run_workload(workload, seed=3, trace=1)
        check_result(workload, result, bench["per_layer"])
        require(traced["label_digest"] == first["label_digest"], f"{workload}: traced digest")
        print(f"ok {workload} digest={first['label_digest']} error_pct={first['error_pct']}")
    proc = run(HERE / "run.py", "--all", "--seed", "3", "--seconds", "0", "--tiny")
    require(proc.returncode == 0, f"--all: exit {proc.returncode}\n{proc.stderr}")
    check_refuses_without_library(bench_json)
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
