"""Span tracing for the benchmark's traced run.

`Tracer` wraps package functions in the namespace of every module that
calls them: a name imported with ``from .fundamental import _reduce_core``
is a separate binding in ``orbits``, so patching only the defining module
would miss those calls.  `Tracer.patch` therefore rebinds every attribute
of every loaded ``horolattice`` module that refers to the target, and
`Tracer.restore` puts each original back.

Each wrapped call records a span (name, start, end, parent).  Generator
functions are timed only while they run, so a span's ``busy`` time is
what counts; for ordinary calls it equals end - start.  Spans stay in
memory; `write_spans` dumps them at the end of the run.  Self time is a
span's busy time minus the busy time of its children.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int  # -1 for a root span
    start: float
    end: float = 0.0
    busy: float = 0.0
    nested: bool = False  # inside another span of the same name
    resumed: float = 0.0


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list = []
        self._open_names: Counter = Counter()
        self._patches: list = []

    # -- spans -----------------------------------------------------------

    def _new(self, name: str) -> Span:
        now = time.perf_counter()
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self.spans), name, parent, now, nested=self._open_names[name] > 0)
        self.spans.append(span)
        return span

    def _resume(self, span: Span) -> None:
        self._stack.append(span)
        self._open_names[span.name] += 1
        span.resumed = time.perf_counter()

    def _suspend(self, span: Span) -> None:
        now = time.perf_counter()
        span.busy += now - span.resumed
        span.end = now
        self._stack.pop()
        self._open_names[span.name] -= 1

    def wrap(self, name: str, fn, count=None):
        """A traced stand-in for fn; count(args, kwargs, result) feeds counters."""
        tracer = self
        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                span = tracer._new(name)
                yielded = 0
                try:
                    while True:
                        tracer._resume(span)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._suspend(span)
                        yielded += 1
                        yield item
                finally:
                    gen.close()
                    tracer.counters[name + ".yielded"] += yielded

            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            span = tracer._new(name)
            tracer._resume(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._suspend(span)
            if count is not None:
                tracer.counters[name + ".count"] += count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def patch(self, target, name: str, count=None, owner=None) -> int:
        """Rebind target wherever a loaded package module holds it.

        With `owner` (a class), the attribute of that class is patched
        instead.  Returns the number of bindings replaced.
        """
        attr = target.__name__
        wrapper = self.wrap(name, target, count)
        if owner is not None:
            self._patches.append((owner, attr, target))
            setattr(owner, attr, wrapper)
            return 1
        replaced = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "horolattice" or mod_name.startswith("horolattice.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is target:
                    self._patches.append((mod, key, target))
                    setattr(mod, key, wrapper)
                    replaced += 1
        if replaced == 0:
            raise LookupError(f"{attr} is bound in no loaded horolattice module")
        return replaced

    def restore(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    # -- aggregation -----------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive busy time and self time."""
        child_busy = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child_busy[s.parent] += s.busy
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for s in self.spans:
            row = out[s.name]
            row["calls"] += 1
            row["self_s"] += s.busy - child_busy[s.id]
            if not s.nested:
                row["s"] += s.busy
        return out

    def child_time(self, name: str, parent_name: str) -> tuple:
        """(calls, busy seconds) of `name` spans directly under `parent_name`."""
        calls, busy = 0, 0.0
        for s in self.spans:
            if s.name == name and s.parent >= 0 and self.spans[s.parent].name == parent_name:
                calls += 1
                busy += s.busy
        return calls, busy


def write_spans(path, tracers) -> None:
    """One JSON line per span; `iteration` numbers the traced iterations."""
    with open(path, "w", encoding="utf-8") as fh:
        for iteration, tracer in enumerate(tracers):
            for s in tracer.spans:
                fh.write(
                    json.dumps(
                        {
                            "iteration": iteration,
                            "id": s.id,
                            "name": s.name,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                            "busy": s.busy,
                        }
                    )
                    + "\n"
                )
