"""Performance layer: the windowed histograms behind the serving metrics
(``docs/SERVING.md``) and the span aggregator's duration distributions.
"""

from repro.perf.histogram import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS_MS,
    Histogram,
    merge_summaries,
)

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "Histogram",
    "LATENCY_BUCKETS_MS",
    "merge_summaries",
]
