"""In-memory spans for the traced run, and the self time derived from them.

A span is (name, start, end, parent, run).  The first dotted component of a
span name is its layer (``flow.max_left_k_matching`` -> ``flow``).  Spans are
kept in a list while the run lasts and written out with the result.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, run: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "run": run}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, run: str, fn, *args):
        """fn(*args) inside a span named name; returns fn's result."""
        with self.span(name, run):
            return fn(*args)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Every layer runs on the caller's single thread, so child spans never
    overlap and the covered time is the sum of their durations.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
