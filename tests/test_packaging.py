"""Packaging metadata: every console script named in pyproject.toml resolves,
and every package function the benchmark tracer wraps still exists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
TRACING = ROOT / "perfbench" / "tracing.py"


def resolve_entry_point(target: str):
    """Import ``module:attr.path`` and return the object it names."""
    module_name, _, attr_path = target.partition(":")
    obj = importlib.import_module(module_name)
    for attr in attr_path.split("."):
        obj = getattr(obj, attr)
    return obj


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    doc = tomllib.loads(PYPROJECT.read_text())
    for name, target in doc["project"].get("scripts", {}).items():
        assert callable(resolve_entry_point(target)), f"{name} = {target!r} is not callable"


def test_dangling_entry_point_is_caught():
    with pytest.raises(ImportError):
        resolve_entry_point("cwmix.no_such_module:main")


def test_traced_layers_resolve():
    # a renamed layer would otherwise only drop out of the per-layer metrics
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.patch_targets()
    assert targets
    for target in targets:
        module_name, _, attr = target.rpartition(".")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{target} is not a callable"
