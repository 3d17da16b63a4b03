"""Observability layer: structured tracing across build, train, serve.

``repro.obs`` is the diagnostic backbone of the reproduction: one
:class:`Tracer` threads through the three hot paths — the parallel
benchmark build (``build_nvbench``), the training loop
(``train_model``), and the inference server (trace id minted at HTTP
ingress, propagated through micro-batch coalescing, returned as the
``X-Trace-Id`` response header) — and exports finished spans as JSONL.
``python -m repro trace summarize`` renders an export as a span tree
with per-stage latency breakdowns; ``--profile`` reports are per-name
totals a :class:`SpanAggregator` folds from the same spans.

Everything is stdlib-only and zero-overhead when disabled: every
instrumented entry point takes ``tracer=None``, and a disabled tracer
returns a shared no-op span.  See ``docs/OBSERVABILITY.md`` for the
span model, the exporter format, and worked examples.
"""

from repro.obs.aggregate import SpanAggregator
from repro.obs.export import (
    InMemoryExporter,
    JsonlExporter,
    NullExporter,
    load_spans,
    make_exporter,
)
from repro.obs.summarize import (
    SpanNode,
    render_stage_table,
    render_tree,
    span_tree,
    stage_table,
    summarize,
)
from repro.obs.trace import NOOP_SPAN, Span, SpanContext, Tracer, traced

__all__ = [
    "InMemoryExporter",
    "JsonlExporter",
    "NOOP_SPAN",
    "NullExporter",
    "Span",
    "SpanAggregator",
    "SpanContext",
    "SpanNode",
    "Tracer",
    "load_spans",
    "make_exporter",
    "render_stage_table",
    "render_tree",
    "span_tree",
    "stage_table",
    "summarize",
    "traced",
]
