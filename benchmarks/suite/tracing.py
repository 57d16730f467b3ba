"""Spans recorded from the benchmark's own files, around layer calls.

A span is ``(name, start, end, parent, workload)``; counts measured at
the same boundary ride along in ``counts``.  Spans stay in memory and
are written to ``trace-<workload>.jsonl`` when the run ends.  Tracing
*inside* ``src/repro`` is a later change (ROADMAP item 2); here every
span wraps a call the suite itself makes into a layer's public API.

A disabled tracer records nothing and adds one branch per call, so the
untraced pass measures the program, not the tracer.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Tracer"]


class Tracer:
    """In-memory span recorder for one workload (single-threaded use)."""

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        #: ``[name, start, end, parent_index, counts]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        """Time the enclosed block; yields the mutable ``counts`` dict."""
        if not self.enabled:
            yield counts
            return
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, counts]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield counts
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, func, *args, **kwargs):
        """``func(*args, **kwargs)`` inside a span named *name*."""
        if not self.enabled:
            return func(*args, **kwargs)
        with self.span(name):
            return func(*args, **kwargs)

    # -- aggregation ----------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Seconds of every finished span called *name*, in start order."""
        return [
            span[2] - span[1]
            for span in self.spans
            if span[0] == name and span[2] is not None
        ]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def count(self, name: str, key: str) -> float:
        """Sum of one recorded count over every span called *name*."""
        return sum(
            span[4].get(key, 0) for span in self.spans if span[0] == name
        )

    def names(self) -> set[str]:
        return {span[0] for span in self.spans}

    def write(self, path: Path) -> None:
        """One JSON object per line: name, start, end, parent, workload."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, counts) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "workload": self.workload,
                            **({"counts": counts} if counts else {}),
                        }
                    )
                    + "\n"
                )
