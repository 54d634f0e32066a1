"""The per-layer metrics that ``BENCHMARK.json`` names exist in the program.

The benchmark's tracer times the public functions of each ``pmcperturb``
layer module. A ``<layer>.<function>.self_s`` or ``.calls`` metric whose
function is gone, renamed or made private cannot be measured, and the
benchmark run then reports it as absent instead of giving a result.

The other way round, a public function of a layer module that nothing in
the program uses is a second path beside the one the commands run: each
must be used in ``src/``, be a per-layer function of ``BENCHMARK.json``, or
be the model writer the benchmark's generators call.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
PACKAGE = ROOT / "src" / "pmcperturb"


def traced_functions() -> list[tuple[str, str]]:
    """``(layer, function)`` of every per-layer time or call-count metric."""
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    return sorted({tuple(name.rsplit(".", 1)[0].split(".")) for name in names
                   if name.endswith((".self_s", ".calls"))})


def test_benchmark_names_traced_functions():
    assert traced_functions()


@pytest.mark.parametrize("layer, function", traced_functions(),
                         ids=lambda part: part)
def test_traced_function_is_public(layer, function):
    module = importlib.import_module(f"pmcperturb.{layer}")
    fn = getattr(module, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(fn), f"pmcperturb.{layer} defines no function {function}"
    assert fn.__module__ == module.__name__


def names_used_in_src() -> set[str]:
    """Every name read, and every attribute taken, in the package's modules but ``__init__``."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_layer_function_is_used():
    allowed = set(traced_functions()) | {("modelfile", "render_model")}
    used = names_used_in_src()
    unused = []
    for layer in sorted({layer for layer, _ in traced_functions()}):
        tree = ast.parse((PACKAGE / f"{layer}.py").read_text(encoding="utf-8"))
        unused += [f"{layer}.{node.name}" for node in tree.body
                   if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                   and node.name not in used and (layer, node.name) not in allowed]
    assert not unused, f"public functions nothing in src/ uses: {unused}"
