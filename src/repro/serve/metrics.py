"""Request metrics for the inference server.

Counters are a plain name → count map, and the one timed stage (the
shared ``model_forward`` pass) reports ``calls``/``seconds`` like a
build ``--profile`` stage; latency and batch-size distributions use
:class:`~repro.perf.Histogram`.  Everything is thread-safe: the event
loop observes request latencies while executor threads observe batch
sizes.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.perf import BATCH_SIZE_BUCKETS, LATENCY_BUCKETS_MS, Histogram


class ServeMetrics:
    """Aggregated serving telemetry, exported as one JSON dict."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._started = clock()
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {}
        self._forward = {"calls": 0, "seconds": 0.0}
        self.latency_ms = Histogram(LATENCY_BUCKETS_MS)
        self.batch_sizes = Histogram(BATCH_SIZE_BUCKETS)

    # ----- recording ---------------------------------------------------

    def observe_request(self, status: int, seconds: Optional[float]) -> None:
        """Record one finished HTTP request (any endpoint outcome).

        *seconds* is ``None`` for a request rejected before it could be
        framed: it is counted, but the wait for its bytes is the
        client's, so it adds no latency sample.
        """
        self.count("requests_total")
        self.count(f"requests_{status}")
        if seconds is not None:
            self.latency_ms.observe(seconds * 1000.0)

    def observe_batch(self, size: int, seconds: float) -> None:
        """Record one model forward pass over *size* coalesced requests."""
        self.count("batches_total")
        self.count("batched_requests", size)
        with self._lock:
            self._forward["calls"] += 1
            self._forward["seconds"] += seconds
        self.batch_sizes.observe(size)

    def count(self, name: str, amount: int = 1) -> None:
        """Increment a free-form counter (cache hits, drops, ...)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # ----- reporting ---------------------------------------------------

    @property
    def uptime(self) -> float:
        """Seconds since the metrics object (≈ the server) was created."""
        return self._clock() - self._started

    def report(
        self,
        response_cache=None,
        execution_cache=None,
        queue_depth: Optional[int] = None,
        queue_capacity: Optional[int] = None,
        tracer=None,
        encoder_cache=None,
    ) -> Dict[str, object]:
        """The full ``/metrics`` document."""
        with self._lock:
            counters = dict(sorted(self.counters.items()))
            forward = dict(self._forward)
        batches = self.batch_sizes.summary()
        total = counters.get("batched_requests", 0)
        report: Dict[str, object] = {
            "uptime_seconds": self.uptime,
            "counters": counters,
            "stages": {"model_forward": forward} if forward["calls"] else {},
            "latency_ms": self.latency_ms.summary(),
            "batch_size": batches,
            "avg_batch_size": (
                total / batches["count"] if batches["count"] else 0.0
            ),
        }
        if response_cache is not None:
            report["response_cache"] = response_cache.stats()
        if encoder_cache is not None:
            report["encoder_cache"] = encoder_cache.stats()
        if execution_cache is not None:
            report["execution_cache"] = execution_cache.stats()
        if queue_depth is not None:
            report["queue"] = {
                "depth": queue_depth,
                "capacity": queue_capacity,
            }
        if tracer is not None:
            report["tracing"] = tracer.stats()
        return report
