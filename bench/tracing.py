"""In-memory spans recorded by the benchmark around its calls into groverian.

A span is (id, name, start, end, parent id, op id, meta).  The name is
``<layer>.<function>``, where the layer is the groverian module called, so a
layer's self time is the sum over its spans of the span's duration minus the
durations of its direct children (children run one after another, never
concurrently).  Spans are kept in a list and written out once, when the run
ends, so that recording costs two clock reads and one append per span.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

LAYERS = ("solver", "states", "grover", "refutation", "analytic")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    meta: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``enabled``; otherwise every span is a no-op.

    ``op`` is the id of the benchmark op being executed, stamped on each span
    so that the spans of one op can be grouped.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._null = nullcontext({})

    def span(self, name: str):
        """Context manager yielding a dict the caller may fill with counts."""
        if not self.enabled:
            return self._null
        return self._record(name)

    @contextmanager
    def _record(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        meta: dict = {}
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield meta
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.op, meta))

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: span durations minus their children's."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
        totals = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            totals[s.layer] = totals.get(s.layer, 0.0) + s.seconds - child_time.get(s.id, 0.0)
        return totals

    def write(self, path: Path, header: dict, diagnostic: "Tracer") -> None:
        """Writes the spans, and those of the calls made outside the timed
        pass, as one JSON object."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "run": header,
            "spans": [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)],
            "diagnostic_spans": [asdict(s) for s in sorted(diagnostic.spans, key=lambda s: s.id)],
        }) + "\n")
