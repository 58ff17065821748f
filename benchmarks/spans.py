"""In-memory spans around the public functions of cnetlearn's modules.

The tracer wraps every public function of each layer module under each
name it is bound to, in every cnetlearn module.  `learn_clt`, for
example, is bound as `cnetlearn.clt.learn_clt`, `cnetlearn.cnet.learn_clt`
and `cnetlearn.scores.learn_clt`; all three are wrapped, so calls from
inside the library are recorded too.  `numerics` is left alone: its
`log_gamma` runs millions of times per learn, and a wrapper there would
distort every caller's time.  Its cost shows in its callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np

LAYERS = ("data", "clt", "scores", "cnet", "mixture", "circuit", "serialize", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    run_id: str
    rows: int  # rows of the first dataset or matrix argument, 0 if none


def _rows_of(args) -> int:
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim == 2:
            return a.shape[0]
        n = getattr(a, "n_rows", None)
        if isinstance(n, int):
            return n
    return 0


def span_name(layer: str, func: str) -> str:
    """`cli.cmd_learn` is reported as `cli.learn`."""
    if layer == "cli" and func.startswith("cmd_"):
        func = func[len("cmd_") :]
    return f"{layer}.{func}"


class Tracer:
    """Records one span per call of a wrapped function while `active`.

    `counters` maps a span name to a function of the call's result; its
    value is added to `counts[name]`.
    """

    def __init__(self, run_id: str, counters: dict | None = None) -> None:
        self.run_id = run_id
        self.spans: list = []
        self.active = False
        self.counts: dict = {}
        self._counters = counters or {}
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        count = self._counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, 0.0, parent, self.run_id, _rows_of(args))
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) + count(result)
            return result

        return traced

    def install(self) -> list:
        """Wrap the public functions of every layer; returns the span names
        wrapped."""
        wrappers = {}  # id(original) -> wrapper
        names = []
        for layer in LAYERS:
            mod = importlib.import_module(f"cnetlearn.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    name = span_name(layer, attr)
                    wrappers[id(obj)] = self._wrap(name, obj)
                    names.append(name)
        for modname, mod in list(sys.modules.items()):
            if modname != "cnetlearn" and not modname.startswith("cnetlearn."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return sorted(names)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children: list = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_stats(spans: list) -> dict:
    """name -> {"self_s", "total_s", "calls", "rows"} summed over spans."""
    stats: dict = {}
    for s, own in zip(spans, self_times(spans)):
        st = stats.setdefault(
            s.name, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "rows": 0}
        )
        st["self_s"] += own
        st["total_s"] += s.end - s.start
        st["calls"] += 1
        st["rows"] += s.rows
    return stats
