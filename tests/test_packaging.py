"""Packaging metadata: every console script named in pyproject.toml resolves."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def resolve_entry_point(target: str):
    """Import ``module:attr.path`` and return the object it names."""
    module_name, _, attr_path = target.partition(":")
    obj = importlib.import_module(module_name)
    for attr in attr_path.split("."):
        obj = getattr(obj, attr)
    return obj


def test_console_scripts_resolve():
    doc = tomllib.loads(PYPROJECT.read_text())
    for name, target in doc["project"].get("scripts", {}).items():
        assert callable(resolve_entry_point(target)), f"{name} = {target!r} is not callable"


def test_dangling_entry_point_is_caught():
    with pytest.raises(ImportError):
        resolve_entry_point("cwmix.no_such_module:main")
