"""Spans recorded from the benchmark's own code around each call it makes
into a layer's public functions.

Spans stay in memory (name, start, end, parent, task id, N) and are written
out once the run ends.  With tracing off, ``call`` is a plain call, so the
untraced run executes exactly the same program code.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []   # (name, start, end, parent, task, N)
        self.counts: dict[str, int] = {}
        self._parent = -1
        self._task = -1

    @contextmanager
    def task(self, task_id: int, name: str, N: int):
        """Root span of one timed unit; layer calls inside it are its
        children."""
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, -1, task_id, N))
        self._parent, self._task = index, task_id
        try:
            yield
        finally:
            start = self.spans[index][1]
            self.spans[index] = (name, start, time.perf_counter(), -1,
                                 task_id, N)
            self._parent = self._task = -1

    def call(self, name: str, N: int, fn, *args, **kwargs):
        """Call ``fn`` and, when tracing, record a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, time.perf_counter(),
                               self._parent, self._task, N))

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    def durations(self, name: str, N: int | None = None) -> list[float]:
        return [end - start for span_name, start, end, _, _, n in self.spans
                if span_name == name and (N is None or n == N)]

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "task", "N")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def layer_metric(tracer: Tracer, metric: str, timed_s: float) -> float | None:
    """Value of a span-derived per-layer metric named
    ``<layer>.<function>[.N<n>].p50_ms`` or ``...share``, or ``...count``
    for a counter; None when the name is not of that form.  A layer that
    did not run in the workload reads 0."""
    prefix, _, stat = metric.rpartition(".")
    if stat == "count":
        return float(tracer.counts.get(prefix, 0))
    if stat not in ("p50_ms", "share"):
        return None
    head, _, last = prefix.rpartition(".")
    if last.startswith("N") and last[1:].isdigit():
        name, N = head, int(last[1:])
    else:
        name, N = prefix, None
    durations = tracer.durations(name, N)
    if not durations:
        return 0.0
    if stat == "p50_ms":
        return statistics.median(durations) * 1e3
    return sum(durations) / timed_s
