"""The traced benchmark patches package attributes by name; a renamed or
deleted one would make `bench/run.py --trace 1` fail with a KeyError."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("owner,attr", [(p[0], p[1]) for p in load_patches()])
def test_patched_attribute_resolves(owner, attr):
    module, _, cls = owner.partition(".")
    target = importlib.import_module(f"hybridcensus.{module}")
    if cls:
        target = getattr(target, cls)
    # the tracer reads the attribute from the owner's own namespace
    assert attr in vars(target), f"{owner}.{attr} is gone"
