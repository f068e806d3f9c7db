"""In-memory spans recorded around calls into pommkit's public functions.

A span is named ``<layer>.<what>``, where the layer is the pommkit module
that owns the called function (``core``, ``models``, ``likelihood``,
``divergence``, ``posterior``, ``audit``, ``experiment``). Two more
prefixes belong to the harness: ``task`` is the root span of one
benchmark task and ``bench`` wraps user code that the library calls back
(the Metropolis prior). Spans stay in memory until the run ends. Like
the end-to-end timings, spans measure CPU seconds of the process.

The untraced run uses :data:`NULL`, whose methods call straight through,
so the same task code serves both runs.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Optional

LAYERS = ("core", "models", "likelihood", "divergence", "posterior", "audit", "experiment")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    task: Optional[int]
    count: int  # calls the span covers; a batch span wraps a loop of calls

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _qualname(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.task: Optional[int] = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, count: int = 1):
        parent = self._open[-1] if self._open else None
        s = Span(name, time.process_time(), float("nan"), parent, self.task, count)
        self._open.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.process_time()
            self._open.pop()

    def call(self, fn, *args, **kw):
        """Call ``fn`` inside a span named after its module and name."""
        with self.span(_qualname(fn)):
            return fn(*args, **kw)

    def call_as(self, name: str, count: int, fn, *args, **kw):
        with self.span(name, count):
            return fn(*args, **kw)

    def wrap(self, name: str, fn):
        """Wrap a callback that the library will invoke."""

        def traced(*args, **kw):
            with self.span(name):
                return fn(*args, **kw)

        return traced


class _Null:
    enabled = False
    task = None

    def span(self, name, count=1):
        return nullcontext()

    def call(self, fn, *args, **kw):
        return fn(*args, **kw)

    def call_as(self, name, count, fn, *args, **kw):
        return fn(*args, **kw)

    def wrap(self, name, fn):
        return fn


NULL = _Null()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


@dataclass
class Summary:
    tasks: int  # traced tasks
    wall: float  # summed CPU time of the traced tasks
    layer_self: dict  # layer -> summed self seconds inside task trees
    layer_calls: dict  # layer -> calls inside task trees
    unattributed: float  # self time of the task spans (harness glue)
    by_name: dict  # name -> [summed duration, summed count, summed self, spans]
    spans_in_tasks: int

    def per_task(self, value: float) -> float:
        return value / self.tasks if self.tasks else 0.0

    def duration(self, name: str) -> float:
        return self.by_name[name][0] if name in self.by_name else 0.0

    def count(self, name: str) -> int:
        return self.by_name[name][1] if name in self.by_name else 0

    def self_time(self, name: str) -> float:
        return self.by_name[name][2] if name in self.by_name else 0.0


def summarize(spans: list[Span]) -> Summary:
    """Aggregate spans by layer (inside task trees) and by name (anywhere)."""
    selfs = self_times(spans)
    root_of: list[Optional[int]] = []
    for i, s in enumerate(spans):
        if s.name == "task":
            root_of.append(i)
        else:
            root_of.append(root_of[s.parent] if s.parent is not None else None)
    layer_self: dict = defaultdict(float)
    layer_calls: dict = defaultdict(int)
    by_name: dict = defaultdict(lambda: [0.0, 0, 0.0, 0])
    tasks = 0
    wall = 0.0
    unattributed = 0.0
    in_tasks = 0
    for s, own, root in zip(spans, selfs, root_of):
        agg = by_name[s.name]
        agg[0] += s.duration
        agg[1] += s.count
        agg[2] += own
        agg[3] += 1
        if root is None:
            continue
        if s.name == "task":
            tasks += 1
            wall += s.duration
            unattributed += own
            continue
        in_tasks += 1
        layer_self[s.layer] += own
        layer_calls[s.layer] += s.count
    return Summary(tasks, wall, dict(layer_self), dict(layer_calls), unattributed, dict(by_name), in_tasks)
