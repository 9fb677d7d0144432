"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, start and end (``perf_counter`` seconds), the span that
was open when it started, the run id, and optional counts measured at the
same boundary. Spans stay in memory and are written out once, when the run
ends. A disabled tracer records nothing, so the untraced run pays only for
entering an empty context manager.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        """Record one span; the body may add counts to the yielded dict."""
        if not self.enabled:
            yield {}
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "counts": dict(counts),
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def median(self, name: str) -> float:
        """Median duration of the spans called ``name`` (0 if none)."""
        d = [s["end"] - s["start"] for s in self.spans if s["name"] == name]
        return statistics.median(d) if d else 0.0

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "self_s": self.self_times()}, f, indent=1)
