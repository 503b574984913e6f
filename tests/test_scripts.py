"""The ablation script and the benchmark wrap library attributes by name; they must stay alive."""

import ast
import importlib.util
import inspect
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from curcluster import cli, simgen, synth
from curcluster.cluster import LabelVector, clustering_error
from curcluster.pipeline import ProtoConfig, proto_similarity

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ablate_8c.py"
PERFBENCH = ROOT / "perfbench"
README = ROOT / "README.md"


def load(path):
    """Import a file by path, without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def ablate():
    return load(SCRIPT)


def test_every_variant_names_what_exists(ablate):
    patches = [patch for _, _, variant in ablate.VARIANTS for patch in variant]
    assert patches
    for module, name, _ in patches:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name} is gone"
    for _, kwargs, _ in ablate.VARIANTS:
        inspect.signature(ablate.sweep_mean).bind(1, **kwargs)


def test_spectral_reference_matches_library(ablate):
    ablate.check_spectral_reference()


def test_threshold_variants_reach_proto(ablate, monkeypatch):
    # proto's trials look simgen.threshold_volumetric up at call time, so a variant is used;
    # the shipped count with every tie at the cut kept is the library's rule, bit for bit
    y = np.round(np.random.default_rng(0).standard_normal((12, 50)), 1)  # ties at the cut
    for m in (1, 2, 3, 5, 8):
        np.testing.assert_array_equal(ablate.threshold(ablate.shipped_keep)(y, m).view(np.uint32),
                                      simgen.threshold_volumetric(y.copy(), m).view(np.uint32))
    model = synth.random_union_model(30, (3, 3, 3), 0)
    w = synth.sample_instance(model, (10, 10, 10), 0.05, 1).data
    cfg = ProtoConfig(m_subspaces=3, target_rank=9, n_trials=5)
    shipped = proto_similarity(w, cfg).entries
    monkeypatch.setattr(simgen, "threshold_volumetric", ablate.threshold(ablate.shipped_keep))
    np.testing.assert_array_equal(proto_similarity(w, cfg).entries, shipped)
    monkeypatch.setattr(simgen, "threshold_volumetric", ablate.threshold(ablate.minority_keep))
    assert not np.array_equal(proto_similarity(w, cfg).entries, shipped)


def test_every_probe_target_exists():
    targets = load(PERFBENCH / "probe.py").TARGETS
    assert targets
    for name, owner, attr in targets:
        assert callable(getattr(owner, attr, None)), f"{name} is gone"


def test_sweep_workload_bindings_exist():
    # the sweep workload replaces `synth.<name>` to keep what run_sweep computed on
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    wrapped = {
        target.attr
        for node in ast.walk(tree) if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "synth"
    }
    assert {"proto_cluster", "sample_instance"} <= wrapped
    for name in wrapped:
        assert callable(getattr(synth, name, None)), f"synth.{name} is gone"
        assert name in synth.run_sweep.__code__.co_names, f"run_sweep no longer calls {name}"


def readme_commands():
    """The argv of each `curcluster` command in the README's "Command line" block."""
    commands = re.search(r"## Command line\n+```sh\n(.*?)```", README.read_text(), re.S).group(1)
    return [shlex.split(line)[1:] for line in commands.replace("\\\n", " ").splitlines()
            if line.startswith("curcluster ")]


def test_readme_examples():
    # the Python snippet runs, and every command of the "Command line" block parses
    (snippet,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(snippet, str(README), "exec"), {})
    argvs = readme_commands()
    assert argvs
    parser = cli.build_parser()
    for argv in argvs:
        parser.parse_args(argv)


def test_readme_cluster_runs_keep_the_truth(tmp_path, monkeypatch, capsys):
    # the block's instance, then its `cluster` runs in order: no run writes over the instance's
    # labels, so each reported error is measured against the synthetic truth
    monkeypatch.chdir(tmp_path)
    synth_argv, *runs = [argv for argv in readme_commands() if argv[0] == "cluster"
                         or (argv[0] == "synth" and "--sweep" not in argv)]
    assert synth_argv[0] == "synth" and len(runs) == 3
    assert cli.main(synth_argv) == 0
    data = Path(synth_argv[synth_argv.index("--out") + 1])
    truth_bytes = cli.labels_path(data).read_bytes()
    truth = cli.load_csv(data).labels
    for argv in runs:
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert cli.labels_path(data).read_bytes() == truth_bytes
        predicted = np.loadtxt(cli.labels_path(data, ".pred.labels"), dtype=int)
        error = clustering_error(LabelVector(predicted, int(predicted.max()) + 1), truth)
        assert f"clustering error: {error:.6g}%" in capsys.readouterr().out


def test_cli_exact_workload_clusters(tmp_path):
    # the benchmark's `cluster --algo exact --dmax 4 --out PREFIX` run, at its tiny size
    workload = load(PERFBENCH / "workloads.py").CliExactN300(tiny=True)
    (spec,) = workload.make_ops(1, tmp_path)
    outcome = workload.outcome(spec, workload.op(spec))
    assert outcome.exit_code == 0
    truth = LabelVector(outcome.truth, int(outcome.truth.max()) + 1)
    assert clustering_error(LabelVector(outcome.labels, outcome.m_clusters), truth) == 0.0
