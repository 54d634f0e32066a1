"""Outside-in tracer: spans around the public functions of ``pmcperturb`` layers.

The program is not instrumented. :meth:`Tracer.install` replaces every
public function defined in a layer module by a wrapper that records a span
(function, start, end, parent span). Because ``from .x import y`` copies a
function into other modules, the wrapper is installed under every name in
every ``pmcperturb.*`` namespace that binds the original function.

Spans are kept in memory, four integers per span in one flat ``array``, and
written out by :meth:`Tracer.dump` when the run ends. :meth:`Tracer.profile`
reduces the spans of one operation to per-function self time (span minus
its direct children) and call counts.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

#: Program modules measured as layers.
LAYERS = ("modelfile", "model", "reachability", "perturbation", "sampler", "report", "cli")

#: Counts read from a function's return value at the layer boundary.
OBSERVERS = {
    "reachability.reach_positive_mask": ("reachability.reach_positive_states",
                                         lambda mask: int(mask.sum())),
    "reachability.extract_system": ("reachability.nnz_a",
                                    lambda system: int((system.a != 0.0).sum())),
    "sampler.validate_bounds": ("sampler.samples_evaluated",
                                lambda report: len(report.samples)),
}

#: Package whose layer modules are traced.
PACKAGE = "pmcperturb"
#: Name of the benchmark's own span around one CLI call.
OP = "op"
_FIELDS = 4  # function id, start ns, end ns, parent span index
_NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names = [OP]
        self.spans = array("q")
        self.observed: dict[str, list[int]] = defaultdict(list)
        self._stack = [_NO_PARENT]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap the public functions of every layer module in all namespaces."""
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()

    def traced(self) -> set[str]:
        """Qualified names of the functions the tracer wraps."""
        return set(self.names[1:])

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observer = OBSERVERS.get(qualname)
        observed = self.observed[observer[0]] if observer else None

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.extend((fid, clock(), 0, stack[-1]))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index + 2] = clock()
            if observer:
                observed.append(observer[1](result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, fn, *args):
        """Run ``fn(*args)`` as the root span of one operation.

        Returns the result and the operation's record: its span range and
        the largest value of each boundary count, for :meth:`profile`.
        """
        spans = self.spans
        for values in self.observed.values():
            values.clear()
        start = len(spans)
        spans.extend((0, time.perf_counter_ns(), 0, _NO_PARENT))
        self._stack.append(start)
        try:
            result = fn(*args)
        finally:
            self._stack.pop()
            spans[start + 2] = time.perf_counter_ns()
        counts = {name: max(values, default=0) for name, values in self.observed.items()}
        return result, {"spans": [start, len(spans)], "counts": counts}

    def profile(self, record: dict) -> dict[str, tuple[int, int]]:
        """``{name: (self_ns, calls)}`` over the spans of one operation's record."""
        spans = self.spans
        span_range = range(*record["spans"], _FIELDS)
        child_ns: dict[int, int] = defaultdict(int)
        for index in span_range:
            parent = spans[index + 3]
            if parent != _NO_PARENT:
                child_ns[parent] += spans[index + 2] - spans[index + 1]
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for index in span_range:
            name = self.names[spans[index]]
            self_ns[name] += spans[index + 2] - spans[index + 1] - child_ns[index]
            calls[name] += 1
        return {name: (self_ns[name], calls[name]) for name in self_ns}

    def dump(self, path: Path) -> None:
        """Write the span names (JSON) and the raw spans (int64, native order)."""
        path.with_suffix(".json").write_text(
            json.dumps({"fields": ["function", "start_ns", "end_ns", "parent_span"],
                        "functions": self.names}), encoding="utf-8")
        with open(path.with_suffix(".spans"), "wb") as fh:
            self.spans.tofile(fh)
