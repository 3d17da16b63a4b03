"""Streaming span aggregation, the source of every per-name view of a
trace: the ``repro trace summarize`` stage table and the ``--profile``
reports (:func:`repro.core.nvbench.build_profile`,
:func:`repro.neural.trainer.train_profile`).  Records are dropped once
folded, so the state is bounded by the number of distinct span names.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List

from repro.perf.histogram import LATENCY_BUCKETS_MS, Histogram

#: Recent durations kept per span name for exact percentiles.
WINDOW = 8192


class SpanStats:
    """Calls, seconds, errors, a duration histogram (ms), and the sum of
    every numeric attribute of the spans with one name."""

    __slots__ = ("durations", "errors", "sums")

    def __init__(self) -> None:
        self.durations = Histogram(LATENCY_BUCKETS_MS, window=WINDOW)
        self.errors = 0
        self.sums: Dict[str, float] = {}

    @property
    def calls(self) -> int:
        return self.durations.count

    @property
    def seconds(self) -> float:
        return self.durations.total / 1000.0

    def observe(self, record: dict) -> None:
        """Fold one span record into the totals."""
        self.durations.observe(float(record.get("duration_ms") or 0.0))
        if record.get("status") == "error":
            self.errors += 1
        for key, value in (record.get("attributes") or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.sums[key] = self.sums.get(key, 0) + value


class SpanAggregator:
    """An exporter folding finished spans into per-name :class:`SpanStats`.

    *downstream* (e.g. the ``--trace`` JSONL file) receives every record
    after it is folded; the records of the span names in *keep* (one
    ``epoch`` span per training epoch) are also retained, in order.
    """

    def __init__(self, downstream=None, keep: Iterable[str] = ()):
        self.downstream = downstream
        self._stats: Dict[str, SpanStats] = {}
        self._kept: Dict[str, List[dict]] = {name: [] for name in keep}
        self._lock = threading.Lock()

    def export(self, record: dict) -> None:
        """Fold *record*, then hand it downstream."""
        name = record.get("name", "")
        with self._lock:
            stats = self._stats.get(name)
            if stats is None:
                stats = self._stats[name] = SpanStats()
            stats.observe(record)
            if name in self._kept:
                self._kept[name].append(record)
        if self.downstream is not None:
            self.downstream.export(record)

    def close(self) -> None:
        """Close the downstream exporter, if any."""
        if self.downstream is not None:
            self.downstream.close()

    def get(self, name: str) -> SpanStats:
        """The totals for *name* (empty when no such span finished)."""
        with self._lock:
            return self._stats.get(name) or SpanStats()

    def kept(self, name: str) -> List[dict]:
        """The retained records of a *keep* name."""
        with self._lock:
            return list(self._kept[name])

    def counters(self, attributes: Iterable[str]) -> Dict[str, float]:
        """Sum each of *attributes* over the spans that carried it; an
        attribute no span carried is absent, not zero."""
        totals: Dict[str, float] = {}
        with self._lock:
            for stats in self._stats.values():
                for key in attributes:
                    if key in stats.sums:
                        totals[key] = totals.get(key, 0) + stats.sums[key]
        return dict(sorted(totals.items()))

    def stages(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "seconds"}}`` for every span name, sorted."""
        with self._lock:
            items = sorted(self._stats.items())
        return {name: {"calls": s.calls, "seconds": s.seconds} for name, s in items}

    def rows(self) -> List[Dict[str, object]]:
        """Per-name latency rows, sorted by total time descending."""
        with self._lock:
            items = list(self._stats.items())
        rows = [
            {"name": name, "calls": s.calls, "total_ms": s.durations.total,
             "max_ms": s.durations.max or 0.0, "errors": s.errors,
             "mean_ms": s.durations.total / s.calls}
            for name, s in items
        ]
        return sorted(rows, key=lambda row: -row["total_ms"])
