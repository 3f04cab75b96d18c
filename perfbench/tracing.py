"""In-memory spans around calls into the package, and self-time accounting.

A span is named after the per-layer metric it feeds, for example
``interval_embed.lrs_s``; its layer is the part of the name before the first
dot.  Spans named ``step.*`` mark one workload step (one CLI command, or one
group of in-process calls) and belong to no layer: their self time, plus any
gap between steps, is the unattributed remainder.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

STEP = "step"


class Tracer:
    """Records spans and counts for one run; does nothing when disabled.

    Spans and counts stay in memory; :meth:`to_json` hands them to the
    caller, which writes them out when the run ends.
    """

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, call: str = ""):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "run": self.run_id,
            "name": name,
            "call": call,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        with self.span(name, fn.__qualname__):
            return fn(*args, **kwargs)

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def to_json(self) -> dict:
        return {"run": self.run_id, "spans": self.spans, "counts": dict(self.counts)}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        clipped = [
            (max(lo, s["start"]), min(hi, s["end"]))
            for lo, hi in children[s["id"]]
            if hi > s["start"] and lo < s["end"]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(clipped)
    return out


def summarize(spans: list[dict]) -> dict:
    """Self time per span name and per layer, the traced wall time, and the
    unattributed remainder (wall time that no layer's self time covers)."""
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    for s in spans:
        by_name[s["name"]] += own[s["id"]]
        if layer_of(s["name"]) != STEP:
            by_layer[layer_of(s["name"])] += own[s["id"]]
    roots = [s for s in spans if s["parent"] is None]
    wall = max(s["end"] for s in roots) - min(s["start"] for s in roots) if roots else 0.0
    return {
        "by_name": dict(by_name),
        "by_layer": dict(by_layer),
        "wall": wall,
        "unattributed": wall - sum(by_layer.values()),
    }
