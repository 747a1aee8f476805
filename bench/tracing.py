"""In-memory spans around the benchmark's calls into each layer.

A span has a name, a start, an end, the operation it belongs to and its
parent span. Spans are held in a list and written out when the run ends.
A layer's figure is its self time: the span's duration minus the part of
it that child spans cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """Collects spans; ``span`` nests through the ``with`` stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.values: dict[str, list[float]] = {}
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, op: str | None = None):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, op or (parent.op if parent else ""),
                 parent.id if parent else None, perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def record(self, name: str, value: float) -> None:
        """A measured value that is not a time, such as a child's peak memory."""
        self.values.setdefault(name, []).append(value)

    def self_times(self) -> dict[str, list[float]]:
        """Self time in seconds of every span, grouped by span name."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out: dict[str, list[float]] = {}
        for s in self.spans:
            out.setdefault(s.name, []).append(s.end - s.start - covered[s.id])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
            for name, vals in self.values.items():
                fh.write(json.dumps({"name": name, "values": vals}) + "\n")
