"""The per-layer metrics that ``BENCHMARK.json`` names exist in the program.

The benchmark's tracer times the public functions of each ``pmcperturb``
layer module. A ``<layer>.<function>.self_s`` or ``.calls`` metric whose
function is gone, renamed or made private cannot be measured, and the
benchmark run then reports it as absent instead of giving a result.
"""

from __future__ import annotations

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


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
