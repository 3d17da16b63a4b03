"""Micro-batching request queue for the inference server.

Concurrent ``/translate`` requests land in one bounded asyncio queue; a
single flusher task coalesces them into batches of at most
``max_batch_size``.  The flusher waits for stragglers only once its own
traffic has shown concurrency: after a batch of one request that left
nothing queued, the next request goes out at once with whatever is
already queued; after a batch that had company (more than one request,
or requests queued behind it), the next batch waits up to
``flush_interval`` seconds after its first request.  Each batch is
grouped by model name (one padded forward pass per group) and run on a
thread-pool executor so the event loop keeps accepting connections
during the numpy forward pass.

Backpressure is explicit: a full queue rejects immediately
(:class:`QueueFullError` → HTTP 429), a draining server rejects with
:class:`ServerDrainingError` (→ 503), and :meth:`drain` finishes every
accepted request before the server exits.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.obs.trace import SpanContext, Tracer


class QueueFullError(RuntimeError):
    """The request queue is at capacity; the caller should back off."""


class ServerDrainingError(RuntimeError):
    """The server is shutting down and no longer accepts work."""


@dataclass
class _Pending:
    """One enqueued request waiting for its batch to run."""

    key: str
    item: Any
    future: "asyncio.Future[Any]" = field(repr=False)
    #: trace context of the submitting request (None when untraced)
    context: Optional[SpanContext] = None
    #: monotonic enqueue time, for the coalesce-wait span
    enqueued: float = 0.0


class MicroBatcher:
    """Coalesces submitted items into per-key batches.

    *handler* is a **synchronous** callable ``(key, items) -> results``
    (results aligned with items); it runs on the event loop's default
    executor.  A handler exception fails every request of that group
    with the original exception object, so callers can catch specific
    types (e.g. an unknown-model lookup error).
    """

    def __init__(
        self,
        handler: Callable[[str, List[Any]], List[Any]],
        max_batch_size: int = 8,
        flush_interval: float = 0.005,
        max_queue_depth: int = 128,
        metrics=None,
        tracer: Optional[Tracer] = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self._handler = handler
        self.max_batch_size = max_batch_size
        self.flush_interval = flush_interval
        self.max_queue_depth = max_queue_depth
        self._metrics = metrics
        self._tracer = tracer
        self._queue: "asyncio.Queue[_Pending]" = asyncio.Queue(
            maxsize=max_queue_depth
        )
        self._task: Optional[asyncio.Task] = None
        self._draining = False

    # ----- lifecycle ---------------------------------------------------

    async def start(self) -> None:
        """Launch the flusher task (idempotent)."""
        if self._task is None:
            self._task = asyncio.create_task(self._run(), name="micro-batcher")

    async def drain(self) -> None:
        """Stop accepting, finish every accepted request, stop the task."""
        self._draining = True
        await self._queue.join()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    @property
    def depth(self) -> int:
        """Requests currently queued (not yet picked into a batch)."""
        return self._queue.qsize()

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has begun."""
        return self._draining

    # ----- submission --------------------------------------------------

    async def submit(
        self,
        key: str,
        item: Any,
        timeout: Optional[float] = None,
        context: Optional[SpanContext] = None,
    ) -> Any:
        """Enqueue *item* under *key*; await its batch result.

        *context* is the submitting request's trace context: the batcher
        records a ``batch.wait`` span (enqueue → dispatch) and a
        ``decode`` span (the shared forward pass) under it, so one trace
        id follows a request from HTTP ingress through coalescing into
        the batched model call.

        Raises :class:`ServerDrainingError` / :class:`QueueFullError`
        without enqueueing, :class:`asyncio.TimeoutError` when the result
        misses *timeout* (the request is abandoned; its batch slot is
        skipped when the batch completes), or the handler's exception.
        """
        if self._draining:
            raise ServerDrainingError("server is draining")
        pending = _Pending(
            key=key,
            item=item,
            future=asyncio.get_running_loop().create_future(),
            context=context,
            enqueued=time.perf_counter(),
        )
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            raise QueueFullError(
                f"request queue is full ({self.max_queue_depth} deep)"
            ) from None
        if timeout is None:
            return await pending.future
        return await asyncio.wait_for(pending.future, timeout)

    # ----- flusher -----------------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        # No straggler wait until a batch has had company.  The wait is
        # kept after one: closed-loop clients answered together resubmit
        # a few ms apart, and without it the first would go alone while
        # the rest decode, so batches would alternate small and large.
        wait = 0.0
        while True:
            batch = [await self._queue.get()]
            deadline = loop.time() + wait
            while len(batch) < self.max_batch_size:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    # Deadline passed: still take whatever is already
                    # queued, but don't wait for more.
                    try:
                        batch.append(self._queue.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                    continue
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), remaining)
                    )
                except asyncio.TimeoutError:
                    break
            try:
                await self._dispatch(batch)
            finally:
                for _ in batch:
                    self._queue.task_done()
            had_company = len(batch) > 1 or not self._queue.empty()
            wait = self.flush_interval if had_company else 0.0

    async def _dispatch(self, batch: List[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        groups: Dict[str, List[_Pending]] = {}
        for pending in batch:
            groups.setdefault(pending.key, []).append(pending)
        for key, group in groups.items():
            items = [pending.item for pending in group]
            start = loop.time()
            mono_start = time.perf_counter()
            wall_start = time.time()
            self._trace_waits(group, mono_start, wall_start)
            try:
                results = await loop.run_in_executor(
                    None, self._handler, key, items
                )
            except Exception as exc:  # noqa: BLE001 - fail the whole group
                self._trace_decodes(
                    group, wall_start, time.perf_counter() - mono_start,
                    error=exc,
                )
                for pending in group:
                    if not pending.future.done():
                        pending.future.set_exception(exc)
                continue
            if self._metrics is not None:
                self._metrics.observe_batch(len(group), loop.time() - start)
            self._trace_decodes(
                group, wall_start, time.perf_counter() - mono_start
            )
            for pending, result in zip(group, results):
                if not pending.future.done():  # timed-out futures are done
                    pending.future.set_result(result)

    # ----- tracing ------------------------------------------------------

    def _trace_waits(
        self, group: List[_Pending], mono_now: float, wall_now: float
    ) -> None:
        """One ``batch.wait`` span per traced request: enqueue → dispatch."""
        if self._tracer is None or not self._tracer.enabled:
            return
        for pending in group:
            if pending.context is None:
                continue
            waited = max(mono_now - pending.enqueued, 0.0)
            self._tracer.record(
                "batch.wait",
                parent=pending.context,
                start_unix=wall_now - waited,
                duration_s=waited,
                **self._key_attributes(pending.key),
            )

    def _trace_decodes(
        self,
        group: List[_Pending],
        wall_start: float,
        duration_s: float,
        error: Optional[BaseException] = None,
    ) -> None:
        """One ``decode`` span per traced request in the group.

        Every coalesced request shares the same forward pass, so each
        trace receives a span of the full group duration, stamped with
        the realized batch size.
        """
        if self._tracer is None or not self._tracer.enabled:
            return
        for pending in group:
            if pending.context is None:
                continue
            self._tracer.record(
                "decode",
                parent=pending.context,
                start_unix=wall_start,
                duration_s=duration_s,
                status="error" if error is not None else "ok",
                error=f"{type(error).__name__}: {error}" if error else None,
                batch_size=len(group),
                **self._key_attributes(pending.key),
            )

    @staticmethod
    def _key_attributes(key: str) -> dict:
        """Span attributes for a group key.

        Keys are opaque to the batcher, but the server's convention is
        ``model\\x00decode-tag`` — split it back apart so traces read
        ``model=attn decode=beam4x1`` instead of a fused blob.
        """
        model, _, decode = key.partition("\x00")
        attributes = {"model": model}
        if decode:
            attributes["decode"] = decode
        return attributes
