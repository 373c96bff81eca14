"""Spans around walsh-lab's public functions, installed from outside the program.

``install`` replaces every binding of every public function of the
``field``, ``walsh``, ``code``, ``predict``, ``analysis`` and ``cli`` modules
with a wrapper that records a span named ``<module>.<function>``: the module
attribute, the names other modules and the package import, and the public
methods of ``Field``.  The per-element scalar methods stay unwrapped; their
cost shows as self time of the vector call that loops over them.  ``restore``
puts every original back.

Spans started on a thread that has no open span (scan's worker threads) take
the main thread's innermost open span as parent.  While tracemalloc runs,
spans on the main thread record the peak of traced memory above their start.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

MODULES = ("field", "walsh", "code", "predict", "analysis", "cli")
SCALAR_METHODS = frozenset({"add", "mul", "pow", "inv", "exp", "trace"})
ROOT = "bench.op"


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    base: int = 0  # traced bytes at entry
    top: int = 0  # highest traced bytes seen while open
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory; ``summary`` folds them into per-name figures."""

    def __init__(self):
        self.spans: list[Span] = []
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def enter(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, parent, 0.0)
        if stack is self._main_stack and tracemalloc.is_tracing():
            cur, peak = tracemalloc.get_traced_memory()
            if stack:
                outer = self.spans[stack[-1]]
                outer.top = max(outer.top, peak)
            tracemalloc.reset_peak()
            span.base = span.top = cur
        sid = len(self.spans)
        self.spans.append(span)
        stack.append(sid)
        span.start = time.perf_counter()
        return sid

    def exit(self, sid: int) -> None:
        span = self.spans[sid]
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack is self._main_stack and tracemalloc.is_tracing():
            span.top = max(span.top, tracemalloc.get_traced_memory()[1])
            if stack:
                outer = self.spans[stack[-1]]
                outer.top = max(outer.top, span.top)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy_s, self_s, peak_mb, summed attributes
        and the number of distinct keys.

        Self time is a span's duration minus the union of its children's
        intervals, so on one thread the self times of an operation's spans
        add up to its root span's duration.
        """
        children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children[s.parent].append(i)
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "peak_mb": 0.0})
        keys: dict[str, set] = defaultdict(set)
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for c in sorted((self.spans[c] for c in children[i]), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            row = out[s.name]
            row["calls"] += 1
            row["busy_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - covered
            row["peak_mb"] = max(row["peak_mb"], (s.top - s.base) / 2**20)
            for k, v in s.attrs.items():
                if k == "key":
                    keys[s.name].add(v)
                else:
                    row[k] = row.get(k, 0) + v
        for name, seen in keys.items():
            out[name]["distinct"] = len(seen)
        return dict(out)


def _butterfly_work(arr, stages: int) -> dict:
    """Additions and bytes moved by ``stages`` butterfly stages over ``arr``:
    every stage reads and writes each element once."""
    return {"ops": arr.size * stages, "bytes": 2 * arr.nbytes * stages}


def _annotate(name: str, args, result) -> dict:
    if name == "field.power_map":
        return {"key": (args[0].modulus, args[1])}
    if name == "walsh.fwht":
        return _butterfly_work(result, result.shape[-1].bit_length() - 1)
    return {}


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
            tracer.spans[sid].attrs = _annotate(name, args, result)
            return result
        finally:
            tracer.exit(sid)

    return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every binding of walsh-lab's public functions; returns what ``restore`` needs."""
    package = importlib.import_module("walsh_lab")
    modules = {short: importlib.import_module(f"walsh_lab.{short}") for short in MODULES}
    field_cls = modules["field"].Field
    wrappers = {}
    for short, mod in modules.items():
        for attr, val in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(val) \
                    and val.__module__ == mod.__name__:
                wrappers[val] = _wrap(tracer, f"{short}.{attr}", val)
    for attr, val in vars(field_cls).items():
        if not attr.startswith("_") and inspect.isfunction(val) and attr not in SCALAR_METHODS:
            wrappers[val] = _wrap(tracer, f"field.{attr}", val)
    saved = []
    for owner in (package, *modules.values(), field_cls):
        for attr, val in list(vars(owner).items()):
            if inspect.isfunction(val) and val in wrappers:
                saved.append((owner, attr, val))
                setattr(owner, attr, wrappers[val])
    return saved


def restore(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, val in reversed(saved):
        setattr(owner, attr, val)


@contextmanager
def traced(tracer: Tracer, memory: bool = False):
    """Spans into ``tracer`` while the block runs; with ``memory``, tracemalloc too."""
    saved = install(tracer)
    if memory:
        tracemalloc.start()
    try:
        yield tracer
    finally:
        if memory:
            tracemalloc.stop()
        restore(saved)
