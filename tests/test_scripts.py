"""The ablation script and the benchmark wrap library attributes by name; they must stay alive."""

import ast
import importlib.util
import inspect
import re
import shlex
import sys
from pathlib import Path

import pytest

from curcluster import cli, synth

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ablate_8c.py"
PERFBENCH = ROOT / "perfbench"
README = ROOT / "README.md"


def load(path):
    """Import a file by path, without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
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


def test_readme_examples():
    # the Python snippet runs, and every command of the "Command line" block parses
    text = README.read_text()
    (snippet,) = re.findall(r"```python\n(.*?)```", text, re.S)
    exec(compile(snippet, str(README), "exec"), {})
    commands = re.search(r"## Command line\n+```sh\n(.*?)```", text, re.S).group(1)
    lines = [line for line in commands.replace("\\\n", " ").splitlines()
             if line.startswith("curcluster ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
