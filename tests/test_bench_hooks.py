"""The benchmark's hooks into the package still resolve.

``bench/tracing.py`` wraps package functions by name, and the bench stages
import package names; a renamed or deleted name would otherwise show only
in a traced benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("mod, qual", [(t[0], t[1]) for t in tracing.TARGETS],
                         ids=[f"{t[0]}.{t[1]}" for t in tracing.TARGETS])
def test_trace_target_resolves(mod, qual):
    assert mod in tracing.MODULES
    owner = importlib.import_module(f"logdetml.{mod}")
    for part in qual.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("func", tracing.PROJECTIONS)
def test_traced_projection_resolves(func):
    assert callable(getattr(importlib.import_module("logdetml.solver"), func))


def _bench_names():
    """(file, module, name) for every ``from logdetml... import name`` in
    bench/, and for every ``module.name`` read off an imported package module."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("logdetml"):
                for alias in node.names:
                    found.add((path.name, node.module, alias.name))
                    if node.module == "logdetml":
                        modules[alias.asname or alias.name] = f"logdetml.{alias.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                found.add((path.name, modules[node.value.id], node.attr))
    return sorted(found)


@pytest.mark.parametrize("where, module, name", _bench_names())
def test_bench_name_resolves(where, module, name):
    owner = importlib.import_module(module)
    assert hasattr(owner, name) or importlib.util.find_spec(f"{module}.{name}") is not None
