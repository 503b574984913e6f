"""scripts/ablate_8c.py patches library attributes by name; those names must stay alive."""

import importlib.util
import inspect
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ablate_8c.py"


@pytest.fixture(scope="module")
def ablate():
    spec = importlib.util.spec_from_file_location("ablate_8c", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_variant_names_what_exists(ablate):
    patches = [patch for _, _, variant in ablate.VARIANTS for patch in variant]
    assert patches
    for module, name, _ in patches:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name} is gone"
    for _, kwargs, _ in ablate.VARIANTS:
        inspect.signature(ablate.sweep_mean).bind(1, **kwargs)


def test_spectral_reference_matches_library(ablate):
    ablate.check_spectral_reference()
