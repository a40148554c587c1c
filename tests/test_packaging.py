"""Packaging metadata: every console script named in pyproject.toml resolves,
every package function the benchmark tracer wraps still exists, and the
package imports nothing at run time but numpy and the standard library."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "cwmix"


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


def test_unread_imports_are_tracer_targets():
    # an imported name its module never reads is there only for the tracer to
    # wrap; one the tracer does not name either is a stale import
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = set(tracing.patch_targets())
    stale = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name not in read and f"{module}.{name}" not in targets:
                        stale.append(f"{path.relative_to(ROOT)}:{node.lineno} imports {name}")
    assert not stale, "\n".join(stale)


def test_package_depends_only_on_numpy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # not an import, or a relative one (inside the package)
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in ("numpy", "cwmix") and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.relative_to(ROOT)}:{node.lineno} imports {name}")
    assert not foreign, "\n".join(foreign)
