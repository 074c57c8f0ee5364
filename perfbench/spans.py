"""Span recorder for the traced benchmark run.

A span is one call from the benchmark into a library function: its name, its
start and end (``perf_counter_ns``), the span that was open when it started,
the cell it belongs to, and an optional problem size used by the ladder fits.
Spans are kept in memory and written out once, when the run ends.  With
tracing off the benchmark uses ``NullRecorder``, whose spans cost one shared
``nullcontext``.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NullRecorder:
    """Tracing off: records nothing."""

    cell = None

    def span(self, name: str, size: float | None = None):
        return _NULL


class SpanRecorder:
    """Tracing on: every span is appended to ``self.spans``."""

    def __init__(self):
        self.spans: list[dict] = []
        self.cell = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, size: float | None = None):
        rec = {"name": name, "start": time.perf_counter_ns(), "end": None,
               "parent": self._open[-1] if self._open else None,
               "cell": self.cell, "size": size}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter_ns()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        """Inclusive seconds of every span with this name."""
        return [(s["end"] - s["start"]) * 1e-9 for s in self.spans if s["name"] == name]

    def sized(self, name: str) -> list[tuple[float, float]]:
        """(size, inclusive seconds) of every span with this name and a size."""
        return [(s["size"], (s["end"] - s["start"]) * 1e-9)
                for s in self.spans if s["name"] == name and s["size"] is not None]

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus what its children cover.

        Children of one span never overlap (calls are sequential), so the part
        they cover is the sum of their durations.
        """
        child = defaultdict(int)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        total = defaultdict(int)
        for i, s in enumerate(self.spans):
            total[s["name"]] += s["end"] - s["start"] - child[i]
        return {name: ns * 1e-9 for name, ns in sorted(total.items())}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
