"""In-memory spans and counters recorded around calls into teqtools layers.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span in ``Tracer.spans`` (None at the top) and ``op`` is the id of
the benchmark op that caused it. Spans stay in memory until ``write`` dumps
them as JSON at the end of a run. ``NULL_TRACER`` has the same interface and
records nothing, so check code can share the traced code path.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.op_id: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name, "start": 0.0, "end": 0.0,
                  "parent": self._open[-1] if self._open else None, "op": self.op_id}
        self.spans.append(record)
        self._open.append(index)
        record["start"] = time.perf_counter() - self.origin
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._open.pop()

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def high_water(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def seconds(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum((s["end"] - s["start"] for s in self.spans if s["name"] == name), 0.0)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts,
                                    "maxima": self.maxima}))


class _NullTracer:
    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: int = 1) -> None:
        pass

    def high_water(self, name: str, value: int) -> None:
        pass


NULL_TRACER = _NullTracer()
