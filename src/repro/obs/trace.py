"""Structured tracing: :class:`Tracer` and :class:`Span`.

One trace follows one unit of work — a benchmark build, a training run,
an HTTP request — as a tree of timed spans.  A span has a name, a
monotonic duration, free-form attributes, optional timestamped events,
and an ``ok``/``error`` status; parent/child links are carried by
``(trace_id, span_id)`` contexts that serialize to plain dicts, so a
trace can cross process boundaries (the parallel build ships a context
into each pool worker and merges the returned spans deterministically).

Design rules:

* **stdlib only** — no OpenTelemetry; the span schema is documented in
  ``docs/OBSERVABILITY.md`` and written as JSONL by
  :class:`repro.obs.export.JsonlExporter`.
* **zero overhead when off** — every instrumented entry point takes
  ``tracer=None``; the :func:`traced` helper and a disabled
  :class:`Tracer` both short-circuit to a shared no-op span without
  allocating.
* **explicit or ambient parenting** — ``tracer.span(...)`` nests under
  the innermost active span of the current (async) context by default;
  pass ``parent=`` (a :class:`Span`, a :class:`SpanContext`, or a
  serialized context dict) to cross threads, processes, or sockets.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Union


@dataclass(frozen=True)
class SpanContext:
    """The serializable identity of a span: who to parent new spans to."""

    trace_id: str
    span_id: str

    def to_dict(self) -> Dict[str, str]:
        """Plain-dict form (pickles into pool workers, rides HTTP headers)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, payload: Dict[str, str]) -> "SpanContext":
        """Rebuild a context serialized by :meth:`to_dict`."""
        return cls(trace_id=payload["trace_id"], span_id=payload["span_id"])


ParentLike = Union["Span", SpanContext, Dict[str, str], None]


def _context_of(parent: ParentLike) -> Optional[SpanContext]:
    if parent is None:
        return None
    if isinstance(parent, Span):
        return parent.context
    if isinstance(parent, SpanContext):
        return parent
    return SpanContext.from_dict(parent)


class Span:
    """One timed operation inside a trace.

    Created via :meth:`Tracer.span` / :meth:`Tracer.start_span`; mutate
    it while open (:meth:`set_attribute`, :meth:`add_event`,
    :meth:`set_error`) and it exports itself when it ends.
    """

    __slots__ = (
        "name", "context", "parent_id", "attributes", "events",
        "status", "error", "start_unix", "duration_ms",
        "_tracer", "_t0", "_token", "_ended",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        context: SpanContext,
        parent_id: Optional[str],
        attributes: Optional[dict] = None,
    ):
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.attributes: Dict[str, object] = dict(attributes or {})
        self.events: List[Dict[str, object]] = []
        self.status = "ok"
        self.error: Optional[str] = None
        self.start_unix = tracer._wall()
        self.duration_ms: Optional[float] = None
        self._tracer = tracer
        self._t0 = tracer._clock()
        self._token: Optional[contextvars.Token] = None
        self._ended = False

    # ----- identity -----------------------------------------------------

    @property
    def trace_id(self) -> str:
        """Trace this span belongs to."""
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        """This span's own id."""
        return self.context.span_id

    @property
    def recording(self) -> bool:
        """True — no-op spans override this."""
        return True

    # ----- mutation while open ------------------------------------------

    def set_attribute(self, key: str, value: object) -> "Span":
        """Attach one ``key: value`` attribute; returns self for chaining."""
        self.attributes[key] = value
        return self

    def set_attributes(self, values: dict) -> "Span":
        """Attach many attributes at once."""
        self.attributes.update(values)
        return self

    def add_event(self, name: str, **attributes: object) -> "Span":
        """Record a point-in-time event at the current offset."""
        self.events.append(
            {
                "name": name,
                "offset_ms": (self._tracer._clock() - self._t0) * 1000.0,
                "attributes": dict(attributes),
            }
        )
        return self

    def set_error(self, error: Union[str, BaseException]) -> "Span":
        """Mark the span failed; keeps the message for the export."""
        self.status = "error"
        self.error = f"{type(error).__name__}: {error}" if isinstance(
            error, BaseException
        ) else str(error)
        return self

    # ----- lifecycle ----------------------------------------------------

    def end(self) -> None:
        """Stop the clock and export; safe to call once."""
        if self._ended:
            return
        self._ended = True
        self.duration_ms = (self._tracer._clock() - self._t0) * 1000.0
        self._tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and self.status == "ok":
            self.set_error(exc)
        self.end()

    # ----- export -------------------------------------------------------

    def to_dict(self) -> dict:
        """The exporter-facing record (see ``docs/OBSERVABILITY.md``)."""
        return {
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_unix": self.start_unix,
            "duration_ms": self.duration_ms,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
            "events": list(self.events),
        }


class _NoopSpan:
    """Shared do-nothing span for disabled tracers and ``tracer=None``."""

    __slots__ = ()

    name = "noop"
    parent_id = None
    status = "ok"
    error = None
    duration_ms = None
    recording = False

    @property
    def context(self) -> None:  # no identity: nothing to parent to
        return None

    trace_id = span_id = None

    def set_attribute(self, key, value):  # noqa: D102 - mirrors Span
        return self

    def set_attributes(self, values):  # noqa: D102
        return self

    def add_event(self, name, **attributes):  # noqa: D102
        return self

    def set_error(self, error):  # noqa: D102
        return self

    def end(self):  # noqa: D102
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        pass


NOOP_SPAN = _NoopSpan()


_ID_MASK = (1 << 64) - 1


def _draw_id_base() -> None:
    """Start this process's span ids at a fresh random 64-bit base."""
    global _id_base, _id_counter
    _id_base = int.from_bytes(os.urandom(8), "big")
    _id_counter = itertools.count()


_draw_id_base()
# Forked children (pool workers, process-pool build workers) would
# otherwise mint the same ids as their parent and as each other.
os.register_at_fork(after_in_child=_draw_id_base)


def _new_id() -> str:
    """16 lowercase hex digits: the process's base plus a counter."""
    return f"{(_id_base + next(_id_counter)) & _ID_MASK:016x}"


class Tracer:
    """Creates spans and hands finished ones to an exporter.

    Parameters
    ----------
    exporter:
        Receives each finished span as a dict (see
        :mod:`repro.obs.export`).  ``None`` keeps spans in an internal
        buffer readable via :meth:`finished`.
    enabled:
        ``False`` turns every call into a shared no-op span — the
        disabled tracer can stay wired through hot paths permanently.
    clock / wall:
        Monotonic clock for durations, wall clock for start timestamps
        (injectable for deterministic tests).
    """

    def __init__(
        self,
        exporter=None,
        enabled: bool = True,
        clock=time.perf_counter,
        wall=time.time,
    ):
        self.exporter = exporter
        self.enabled = enabled
        self._clock = clock
        self._wall = wall
        self._buffer: List[dict] = []
        self._lock = threading.Lock()
        self._active: contextvars.ContextVar = contextvars.ContextVar(
            f"repro-obs-active-{id(self)}", default=None
        )
        self.spans_started = 0
        self.spans_finished = 0

    # ----- span creation -------------------------------------------------

    def start_span(
        self,
        name: str,
        parent: ParentLike = None,
        activate: bool = False,
        **attributes: object,
    ) -> Union[Span, _NoopSpan]:
        """Open a span; the caller must :meth:`Span.end` it.

        Without an explicit *parent* the innermost span activated in the
        current context is used; a new trace id is minted when there is
        neither.  ``activate=True`` additionally makes the span the
        ambient parent for the current context until it ends.
        """
        if not self.enabled:
            return NOOP_SPAN
        context = _context_of(parent)
        if context is None:
            context = self._active.get()
        if context is not None:
            # A context with an empty span_id (e.g. a bare inbound
            # ``x-trace-id`` header) roots the span in an existing trace.
            trace_id, parent_id = context.trace_id, context.span_id or None
        else:
            trace_id, parent_id = _new_id(), None
        span = Span(
            self,
            name,
            SpanContext(trace_id=trace_id, span_id=_new_id()),
            parent_id,
            attributes,
        )
        with self._lock:
            self.spans_started += 1
        if activate:
            span._token = self._active.set(span.context)
        return span

    @contextmanager
    def span(
        self, name: str, parent: ParentLike = None, **attributes: object
    ) -> Iterator[Union[Span, _NoopSpan]]:
        """``with tracer.span("stage"):`` — activated, error-recording.

        The span is the ambient parent inside the block, records an
        uncaught exception as its error status, and always ends.
        """
        span = self.start_span(name, parent=parent, activate=True, **attributes)
        try:
            yield span
        except BaseException as exc:
            span.set_error(exc)
            raise
        finally:
            span.end()

    def record(
        self,
        name: str,
        parent: ParentLike = None,
        start_unix: Optional[float] = None,
        duration_s: float = 0.0,
        status: str = "ok",
        error: Optional[str] = None,
        **attributes: object,
    ) -> Union[Span, _NoopSpan]:
        """Emit an already-measured span (post-hoc, e.g. batch timings).

        The micro-batcher times one shared forward pass and then records
        a ``decode`` span per coalesced request, each under its own
        request's trace — this is the API for such after-the-fact spans.
        """
        if not self.enabled:
            return NOOP_SPAN
        span = self.start_span(name, parent=parent, **attributes)
        if start_unix is not None:
            span.start_unix = start_unix
        span.status = status
        span.error = error
        span._ended = True
        span.duration_ms = duration_s * 1000.0
        self._finish(span)
        return span

    # ----- context plumbing ----------------------------------------------

    def current_context(self) -> Optional[SpanContext]:
        """The ambient parent context, if a span is active here."""
        return self._active.get() if self.enabled else None

    # ----- finishing -----------------------------------------------------

    def _finish(self, span: Span) -> None:
        if span._token is not None:
            self._active.reset(span._token)
            span._token = None
        record = span.to_dict()
        with self._lock:
            self.spans_finished += 1
            if self.exporter is None:
                self._buffer.append(record)
        if self.exporter is not None:
            self.exporter.export(record)

    def absorb(self, records: List[dict]) -> int:
        """Merge spans finished elsewhere (a pool worker's export).

        Records are appended in the order given, so a coordinator that
        absorbs shard results in shard order produces a deterministic
        export regardless of worker scheduling.
        """
        if not self.enabled:
            return 0
        with self._lock:
            self.spans_finished += len(records)
            if self.exporter is None:
                self._buffer.extend(records)
        if self.exporter is not None:
            for record in records:
                self.exporter.export(record)
        return len(records)

    def finished(self) -> List[dict]:
        """Spans buffered on a tracer with no exporter (tests, workers)."""
        with self._lock:
            return list(self._buffer)

    def stats(self) -> Dict[str, object]:
        """Counters for ``/metrics`` and health surfaces."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "spans_started": self.spans_started,
                "spans_finished": self.spans_finished,
            }


@contextmanager
def traced(
    tracer: Optional[Tracer],
    name: str,
    parent: ParentLike = None,
    **attributes: object,
) -> Iterator[Union[Span, _NoopSpan]]:
    """``tracer.span(...)`` that tolerates ``tracer=None``.

    Every instrumented entry point calls this so an untraced run never
    touches the tracing machinery.
    """
    if tracer is None or not tracer.enabled:
        yield NOOP_SPAN
        return
    with tracer.span(name, parent=parent, **attributes) as span:
        yield span
