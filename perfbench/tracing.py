"""In-memory span tracing around the program's layer entry points.

The wrappers are installed from the benchmark, at the names the callers
resolve at run time (``ercml.training.encode_dialog``, the ``Adam.step``
class attribute, ...), and removed again afterwards. Nothing in the
program changes: a wrapper calls the original with the same arguments
and returns its result untouched.

A span is (name, start, end, parent, run id). Counts sit beside the
spans, keyed like the per-layer metrics, under the phase span (the
outermost open span: "setup", "pretrain", "train" or "eval") that was
open when they were counted.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, key: str, value: float = 1) -> None:
        phase = self.spans[self._open[0]].name if self._open else ""
        self.counts[phase][key] += value

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr by a spanning wrapper; on_result(args, kwargs, result)
        may record counts from the call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _root(self, idx: int) -> str:
        while self.spans[idx].parent is not None:
            idx = self.spans[idx].parent
        return self.spans[idx].name

    def self_times(self, root: str | None = None) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans
        cover, over every span or only those under a `root`-named span."""
        out: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            if root is not None and self._root(i) != root:
                continue
            duration = span.end - span.start
            out[span.name] += duration
            if span.parent is not None:
                out[self.spans[span.parent].name] -= duration
        return out

    def total_time(self, name: str, root: str | None = None) -> float:
        """Summed duration of the `name` spans, child spans included."""
        return sum(
            s.end - s.start for i, s in enumerate(self.spans)
            if s.name == name and (root is None or self._root(i) == root)
        )

    def write(self, path: Path, record: dict) -> None:
        """Dump every span and count, written once when the run ends."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "run_record": record,
            "counts": {phase: dict(c) for phase, c in self.counts.items()},
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run_id": s.run_id}
                for s in self.spans
            ],
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
