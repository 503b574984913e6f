"""Command-line interface: data ingestion, pipelines, sweeps, benchmarks.

Data files are plain numeric CSVs without a header (rows = ambient
coordinates, columns = data vectors); ground-truth labels live in a
sibling ``<name>.labels`` file with one integer >= 0 per line.  All commands
honor ``--seed`` and produce byte-identical outputs for identical
invocations.

Exit codes: 0 success, 2 usage error (also a count flag below 1, a flag a
pipeline config rejects, a ``cluster --out`` prefix ``<out>`` whose
``<out>.csv`` exists, or a ``bench --out`` inside ``--dir`` not named
``*.report.csv``), 3 data error, 4 algorithm failure (also LinAlgError).
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pipeline, simgen, synth
from .cluster import (
    LabelVector,
    clustering_error,
    spectral_cluster,
)
from .cur import SelectionFailed
from .linalg import as_matrix

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_ALGO = 4

SWEEP_HEADER = ["sigma", "mean_err", "median_err", "min_err", "max_err", "n_instances"]
REPORT_HEADER = ["dataset", "algo", "params", "error_pct", "r_best", "seconds", "seed"]


class DataError(Exception):
    """Malformed or missing input data; mapped to exit code 3."""


@dataclass(frozen=True)
class DatasetFile:
    path: Path
    matrix: np.ndarray
    labels: LabelVector | None = None


def labels_path(path, suffix=".labels") -> Path:
    """`<name><suffix>` beside a `<name>.csv`; any other path gets `suffix` appended."""
    path = Path(path)
    return path.with_suffix(suffix) if path.suffix == ".csv" else Path(str(path) + suffix)


def _lines(path):
    """(line number, stripped line) of each nonblank line of a text file, numbered from 1."""
    # utf-8-sig drops the byte-order mark a spreadsheet's "CSV UTF-8" export puts first
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield lineno, line


def load_csv(path) -> DatasetFile:
    """Parse a numeric CSV and its optional sibling labels file."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: no such file")
    rows = []
    for lineno, line in _lines(path):
        try:
            rows.append(list(map(float, line.split(","))))
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric cell") from None
        if len(rows[-1]) != len(rows[0]):
            raise DataError(
                f"{path}:{lineno}: ragged row ({len(rows[-1])} cells, expected {len(rows[0])})"
            )
    if not rows:
        raise DataError(f"{path}: empty file")
    try:
        matrix = as_matrix(rows)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None

    labels = None
    lpath = labels_path(path)
    if lpath.is_file():
        values = []
        for lineno, line in _lines(lpath):
            if not line.isdecimal():
                raise DataError(f"{lpath}:{lineno}: label {line!r} is not an integer >= 0")
            values.append(int(line))
        if len(values) != matrix.shape[1]:
            raise DataError(
                f"{lpath}: {len(values)} labels for {matrix.shape[1]} data columns"
            )
        arr = np.asarray(values, dtype=int)
        labels = LabelVector(labels=arr, m_clusters=int(arr.max()) + 1)
    return DatasetFile(path=path, matrix=matrix, labels=labels)


def save_csv(path, matrix: np.ndarray) -> None:
    """Write a matrix as CSV with 17 significant digits (lossless round trip)."""
    with open(path, "w", newline="") as fh:
        for row in np.atleast_2d(matrix):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def save_labels(path, labels: LabelVector) -> None:
    with open(path, "w", newline="") as fh:
        for v in labels.labels:
            fh.write(f"{v}\n")


def _write_report(path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        for rec in records:
            writer.writerow([rec.get(col, "") for col in REPORT_HEADER])


def _config(parser, make, **fields):
    """Build a pipeline config; flags it rejects are a usage error (exit 2)."""
    try:
        return make(**fields)
    except ValueError as exc:
        parser.error(str(exc))


def count(text: str) -> int:
    """argparse type of the count flags: an integer >= 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def _require(parser, args, names) -> None:
    for name in names:
        if getattr(args, name.lstrip("-").replace("-", "_")) is None:
            parser.error(f"--algo {args.algo} requires {name}")


def _run_algorithm(parser, args, dataset: DatasetFile):
    """Run the selected pipeline; returns (labels, the RcurResult or None, params str)."""
    w = dataset.matrix
    if args.algo == "exact":
        return pipeline.cluster_noise_free(w), None, ""
    if args.algo == "proto":
        _require(parser, args, ["--M", "--rank"])
        cfg = _config(
            parser, pipeline.ProtoConfig,
            m_subspaces=args.M,
            target_rank=args.rank,
            n_trials=args.k,
            rows_per_trial=args.rows,
            cols_per_trial=args.cols,
            backend=args.backend,
            seed=args.seed,
        )
        labels = pipeline.proto_cluster(w, cfg)
        params = (
            f"M={args.M};rank={args.rank};k={args.k};rows={cfg.rows()};"
            f"cols={cfg.cols(w.shape[1])};backend={args.backend}"
        )
        return labels, None, params
    if args.algo == "rcur":
        _require(parser, args, ["--M", "--rmin", "--rmax", "--alpha"])
        cfg = _config(
            parser, pipeline.RcurConfig,
            r_min=args.rmin,
            r_max=args.rmax,
            alpha=args.alpha,
            n_trials=args.k,
            seed=args.seed,
        )
        result = pipeline.rcur_cluster(w, args.M, cfg)
        params = f"M={args.M};rmin={args.rmin};rmax={args.rmax};alpha={args.alpha};k={args.k}"
        return result.labels, result, params
    if args.algo == "sim":
        _require(parser, args, ["--M", "--rank"])
        sim = simgen.sim_baseline(w, args.rank)
        labels = spectral_cluster(sim, args.M, args.seed)
        return labels, None, f"M={args.M};rank={args.rank}"
    parser.error(f"unknown algorithm {args.algo!r}")


def _warn_if_noisy(args, dataset: DatasetFile, labels: LabelVector) -> None:
    """One stderr line when the exact path's components include single points, as noise makes."""
    if args.algo != "exact":
        return
    singletons = np.count_nonzero(np.bincount(labels.labels) == 1)
    if singletons:
        print(f"warning: {dataset.path}: the exact path found {labels.m_clusters} components, "
              f"{singletons} of them single points; it assumes noise-free data "
              "(--algo proto or rcur cluster noisy data)", file=sys.stderr)


def cmd_synth(parser, args) -> int:
    dims = synth.CASE_DIMS[args.case]
    if args.sweep:
        proto = _config(
            parser, pipeline.ProtoConfig,
            m_subspaces=len(dims),
            target_rank=sum(dims),
            n_trials=args.k,
            backend=args.backend,
            seed=0,
        )
        records = synth.run_sweep(
            dims,
            list(args.sigmas) if args.sigmas else list(synth.SIGMA_SWEEP),
            args.trials,
            proto,
            seed=args.seed,
            ambient_dim=args.ambient,
            points_per_subspace=args.points,
        )
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SWEEP_HEADER)
            for rec in records:
                writer.writerow([f"{rec[c]:.17g}" if isinstance(rec[c], float) else rec[c]
                                 for c in SWEEP_HEADER])
        print(f"wrote sweep over {len(records)} noise levels to {args.out}")
        return EXIT_OK

    if len(args.sigmas or ()) > 1:
        parser.error("--sigma repeats only with --sweep")
    sigma = args.sigmas[0] if args.sigmas else 0.0
    model = synth.random_union_model(args.ambient, dims, args.seed)
    instance = synth.sample_instance(model, [args.points] * len(dims), sigma, args.seed + 1)
    save_csv(args.out, instance.data)
    save_labels(labels_path(args.out), instance.truth)
    print(
        f"wrote {instance.data.shape[0]}x{instance.data.shape[1]} instance "
        f"(sigma={sigma}) to {args.out}"
    )
    return EXIT_OK


def _score(parser, args, dataset: DatasetFile, repeats: int = 1):
    """Run the pipeline at seeds seed .. seed+repeats-1 and score the runs against the truth.

    Returns the last run's labels and RcurResult (or None) and its report record, whose
    `mean_err` is the mean clustering error in % (None without ground truth).
    """
    run_args = argparse.Namespace(**vars(args))
    errors = []
    start = time.perf_counter()
    # the exact path takes no seed: one run gives every repeat's labels
    for repeat in range(1 if args.algo == "exact" else repeats):
        run_args.seed = args.seed + repeat
        labels, result, params = _run_algorithm(parser, run_args, dataset)
        if dataset.labels is not None:
            errors.append(clustering_error(labels, dataset.labels))
    seconds = time.perf_counter() - start
    _warn_if_noisy(args, dataset, labels)
    mean_err = float(np.mean(errors)) if errors else None
    return labels, result, {
        "algo": args.algo,
        "params": params,
        "error_pct": "" if mean_err is None else f"{mean_err:.6g}",
        "r_best": result.r_best if isinstance(result, pipeline.RcurResult) else "",
        "seconds": f"{seconds:.3f}",
        "seed": args.seed,
        "mean_err": mean_err,
    }


def cmd_cluster(parser, args) -> int:
    out = Path(args.out) if args.out else labels_path(args.data, ".pred")
    if labels_path(out).resolve() == labels_path(args.data).resolve():
        parser.error(f"--out {args.out} would write over the dataset's {labels_path(out)}")
    if labels_path(out, ".csv").is_file():
        parser.error(f"--out {args.out} would write over {labels_path(out)}, the labels of "
                     f"dataset {labels_path(out, '.csv')}")
    dataset = load_csv(args.data)
    labels, result, record = _score(parser, args, dataset)
    save_labels(labels_path(out), labels)
    if record["error_pct"]:
        print(f"clustering error: {record['error_pct']}%")
    if isinstance(result, pipeline.RcurResult):
        print(f"r_best: {result.r_best}")
        for r, ncut in result.ncut_per_rank:
            print(f"  rank {r}: ncut {ncut:.6g}")
    _write_report(str(out) + ".report.csv", [{"dataset": str(dataset.path), **record}])
    return EXIT_OK


def _load_manifest(path) -> dict:
    """Per-line `filename,category,M` records keyed by filename."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: no such manifest")
    entries = {}
    for lineno, line in _lines(path):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected `filename,category,M`")
        try:
            entries[parts[0]] = {"category": parts[1], "M": count(parts[2])}
        except (ValueError, argparse.ArgumentTypeError):
            raise DataError(f"{path}:{lineno}: cluster count {parts[2]!r} is not an "
                            "integer >= 1") from None
    return entries


def cmd_bench(parser, args) -> int:
    directory, out = Path(args.dir), Path(args.out)
    if out.resolve().parent == directory.resolve() and not out.name.endswith(".report.csv"):
        parser.error(f"--out {args.out} is inside --dir {args.dir}, where the next bench would "
                     "read it as a dataset; write it elsewhere or name it *.report.csv")
    files = sorted(directory.glob("*.csv")) if directory.is_dir() else []
    files = [f for f in files if not f.name.endswith(".report.csv")]
    if not files:
        raise DataError(f"{directory}: no dataset CSVs found")
    manifest = _load_manifest(args.manifest) if args.manifest else {}

    records = []
    for path in files:
        entry = manifest.get(path.name, {})
        run_args = argparse.Namespace(**{**vars(args), "M": entry.get("M", args.M)})
        record = _score(parser, run_args, load_csv(path), args.repeats)[2]
        records.append({"dataset": path.name, **record, "category": entry.get("category", "")})
    _write_report(args.out, records)

    scored = [rec for rec in records if rec["mean_err"] is not None]
    groups = {}
    for rec in scored:
        groups.setdefault(rec["category"] or "all", []).append(rec)
    for name, group in [*sorted(groups.items()), ("overall", scored)]:
        errs = [rec["mean_err"] for rec in group]
        if errs:
            print(f"{name} ({len(errs)}): mean {np.mean(errs):.4g}% median {np.median(errs):.4g}%")
    return EXIT_OK


def _add_cluster_flags(sub) -> None:
    sub.add_argument("--algo", required=True, choices=["proto", "rcur", "sim", "exact"])
    sub.add_argument("--M", type=count, help="number of subspaces")
    sub.add_argument("--rank", type=count, help="clean-data rank (proto/sim)")
    sub.add_argument("--dmax", type=count, help="ignored: the exact path needs no dimension")
    sub.add_argument("--k", type=int, default=25, help="number of CUR trials")
    sub.add_argument("--rows", type=count, help="rows per trial (default: rank)")
    sub.add_argument("--cols", type=count, help="columns per trial (default: min(n, 24 * rank))")
    sub.add_argument("--alpha", type=float, help="elementwise power (rcur)")
    sub.add_argument("--rmin", type=count, help="minimum sweep rank (rcur)")
    sub.add_argument("--rmax", type=count, help="maximum sweep rank (rcur)")
    sub.add_argument("--backend", default="pcc", choices=list(pipeline.BACKENDS))
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curcluster",
        description="CUR-decomposition subspace clustering toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_synth = commands.add_parser("synth", help="generate synthetic data or run a noise sweep")
    p_synth.add_argument("--case", type=int, default=1, choices=sorted(synth.CASE_DIMS))
    p_synth.add_argument("--sigma", dest="sigmas", type=float, action="append",
                         help="noise level; repeatable (sweep default: the 7-level ladder)")
    p_synth.add_argument("--sweep", action="store_true", help="run the error sweep")
    p_synth.add_argument("--trials", type=count, default=20, help="instances per noise level")
    p_synth.add_argument("--k", type=int, default=25, help="CUR trials per instance (sweep)")
    p_synth.add_argument("--backend", default="pcc", choices=list(pipeline.BACKENDS))
    p_synth.add_argument("--points", type=count, default=50, help="points per subspace")
    p_synth.add_argument("--ambient", type=count, default=300)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=int, default=0)

    p_cluster = commands.add_parser("cluster", help="cluster one dataset CSV")
    p_cluster.add_argument("data", help="dataset CSV path")
    p_cluster.add_argument("--out", help="output prefix (default: <dataset name>.pred)")
    _add_cluster_flags(p_cluster)

    p_bench = commands.add_parser("bench", help="run one algorithm over a dataset directory")
    p_bench.add_argument("--dir", required=True)
    p_bench.add_argument("--manifest", help="per-line `filename,category,M` file")
    p_bench.add_argument("--out", required=True, help="report CSV path")
    p_bench.add_argument("--repeats", type=count, default=1,
                         help="runs per dataset at seeds seed, seed+1, ... (exact: one "
                              "run); the report's seconds cover the runs made")
    _add_cluster_flags(p_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"synth": cmd_synth, "cluster": cmd_cluster, "bench": cmd_bench}
    try:
        return handlers[args.command](parser, args)
    except (SelectionFailed, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ALGO
    except (DataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
