"""Multi-process horizontal serving: a front proxy over N decode workers.

One asyncio process can accept thousands of connections, but numpy
decode holds the GIL — a slow beam batch stalls every other request.
:class:`WorkerPool` breaks that ceiling by running the accept/route loop
in the front process and the model forward passes in N **forked** worker
processes, each a full :class:`~repro.serve.server.InferenceServer`
(micro-batcher, caches, metrics) bound to its own loopback port:

* **Shared weights** — every registered neural model is packed once
  into a :mod:`multiprocessing.shared_memory` segment
  (:func:`repro.neural.shared.share_model`); workers attach and rebind
  parameter views, so resident weight bytes are O(1) in the worker
  count (int8/f16 models shrink the segment further).
* **Routing** — ``POST /translate`` / ``POST /pipeline`` go to the READY
  worker that ranks first by a rendezvous hash of the request's (model,
  db, normalized question), so a repeat reaches the worker that cached
  its response and encoding; a worker already carrying 1.25x its fair
  share of in-flight requests passes the request to the least-loaded
  one (consistent hashing with bounded loads).  The front keeps idle
  keep-alive connections to each worker and reuses them; each worker
  micro-batches its own stream.
* **Crash recovery** — a supervisor task detects dead workers, respawns
  them against the current segments, and in-flight requests that hit a
  broken connection are re-queued onto surviving workers.
* **Rolling hot-swap** — :meth:`WorkerPool.swap_model` packs the new
  weights into a fresh segment, then per worker: drain → ``POST
  /control/swap`` (the worker re-attaches and re-registers, firing its
  cache-invalidation listeners) → back in rotation.  The pool serves
  throughout; the old segment is unlinked when the last worker has
  moved.
* **Consolidated telemetry** — front ``GET /healthz`` reports per-worker
  liveness/queue depth; ``GET /metrics`` merges per-worker counters and
  histograms (:func:`repro.perf.merge_summaries`) next to the front's
  own; one trace threads front → worker → decode via ``X-Trace-Id`` /
  ``X-Parent-Span`` headers, one JSONL file per process
  (``repro trace summarize DIR`` stitches them).

``repro serve --workers N`` builds one of these; ``--workers 1`` keeps
the original single-process server.  See ``docs/SERVING.md``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import hashlib
import json
import math
import multiprocessing
import os
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.neural.shared import (
    SharedManifest,
    SharedModel,
    share_model,
    shared_segments_report,
)
from repro.obs.trace import Tracer
from repro.perf import merge_summaries
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import UnknownModelError
from repro.serve.server import (
    ServerConfig,
    _HTTPError,
    read_http_headers,
    serve_connection,
)
from repro.serve.translate import normalize_question
from repro.storage.schema import Database

#: Workers MUST be forked: arguments (databases, manifests) pass by
#: address-space inheritance, and fork children share the parent's
#: ``resource_tracker``, so attaching to a segment never schedules a
#: spurious unlink (see :mod:`repro.neural.shared`).
_FORK = multiprocessing.get_context("fork")

STARTING = "starting"
READY = "ready"
DRAINING = "draining"
DEAD = "dead"

#: A worker whose in-flight count reaches this multiple of the pool's
#: average (counting the request being placed) passes the request on.
LOAD_BOUND = 1.25


@dataclass
class PoolConfig:
    """Knobs for the front process and its workers."""

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0                      # front port; 0 = ephemeral
    worker: ServerConfig = field(default_factory=ServerConfig)
    warm: bool = False                 # run a dummy request per model at boot
    respawn: bool = True               # auto-restart crashed workers
    max_forward_attempts: int = 3      # tries across workers per request
    worker_startup_timeout: float = 60.0
    ready_wait_timeout: float = 15.0   # request wait for a READY worker
    heartbeat_interval: float = 0.25   # supervisor liveness poll
    drain_poll_interval: float = 0.02  # inflight poll during swap/shutdown
    shutdown_timeout: float = 10.0
    trace_dir: Optional[str] = None    # per-process JSONL span files


@dataclass(eq=False)
class WorkerHandle:
    """Front-side view of one decode worker (compared by identity)."""

    worker_id: int
    process: multiprocessing.Process
    conn: object                       # parent end of the startup pipe
    port: int = 0
    state: str = STARTING
    inflight: int = 0
    restarts: int = 0
    #: open keep-alive ``(reader, writer)`` pairs to the worker, not in use
    idle: list = field(default_factory=list, repr=False)

    def mark_dead(self) -> None:
        """Take the worker out of routing and close its idle connections."""
        self.state = DEAD
        for _, writer in self.idle:
            writer.close()
        self.idle.clear()

    def describe(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "pid": self.process.pid,
            "port": self.port,
            "state": self.state,
            "alive": self.process.is_alive(),
            "inflight": self.inflight,
            "restarts": self.restarts,
        }


class WorkerPool:
    """The front process: owns segments, workers, and the public socket.

    Duck-types the server interface :class:`BackgroundServer` expects
    (async ``start``/``shutdown``, ``host``/``port``), so tests and the
    CLI drive a pool exactly like a single-process server.
    """

    def __init__(
        self,
        databases: Dict[str, Database],
        config: Optional[PoolConfig] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.databases = databases
        self.config = config or PoolConfig()
        if self.config.workers < 1:
            raise ValueError("workers must be >= 1")
        self.tracer = tracer
        self.metrics = ServeMetrics()
        #: model name → owning SharedModel (the pool creates/unlinks).
        self._shared: Dict[str, SharedModel] = {}
        #: model name → manifest respawned workers attach with.
        self._manifests: Dict[str, SharedManifest] = {}
        self._baselines = False
        self._default: Optional[str] = None
        self._workers: List[WorkerHandle] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._supervisor: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closing = False
        self._swap_lock: Optional[asyncio.Lock] = None
        self.generation = 1
        self.host = self.config.host
        self.port = self.config.port

    # ----- model registration (before or after start) --------------------

    def share_model(
        self, name: str, model, in_vocab, out_vocab, default: bool = False
    ) -> SharedModel:
        """Pack *model* into a shared segment served under *name*.

        Before :meth:`start` this seeds the initial worker registry;
        afterwards use :meth:`swap_model`, which goes through the
        rolling drain.
        """
        shared = share_model(model, in_vocab, out_vocab)
        shared.set_generation(self.generation)
        replaced = self._shared.get(name)
        self._shared[name] = shared
        self._manifests[name] = shared.manifest
        if replaced is not None:
            replaced.destroy()
        if default or self._default is None:
            self._default = name
        return shared

    def load_npz(
        self,
        name: str,
        path: str,
        precision: Optional[str] = None,
        default: bool = False,
    ) -> SharedModel:
        """Load a saved seq2vis archive into a shared segment."""
        from repro.neural.persist import load_model

        model, in_vocab, out_vocab = load_model(path, precision=precision)
        return self.share_model(
            name, model, in_vocab, out_vocab, default=default
        )

    def register_baselines(self) -> None:
        """Have every worker register the rule-based baselines."""
        self._baselines = True

    def set_default(self, name: str) -> None:
        """Default model for requests that do not name one.

        Like :meth:`ModelRegistry.set_default`, *name* must already be
        served: a shared model, or a baseline once
        :meth:`register_baselines` has been called.
        """
        from repro.baselines import BASELINES

        served = set(self._shared) | set(BASELINES if self._baselines else ())
        if name not in served:
            raise UnknownModelError(
                f"unknown model {name!r}; registered: {sorted(served)}"
            )
        self._default = name

    # ----- lifecycle ------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Fork workers, await their ports, bind the front socket."""
        self._loop = asyncio.get_running_loop()
        self._swap_lock = asyncio.Lock()
        if self.config.trace_dir:
            Path(self.config.trace_dir).mkdir(parents=True, exist_ok=True)
        for worker_id in range(self.config.workers):
            self._workers.append(self._fork_worker(worker_id))
        await asyncio.gather(
            *(self._await_ready(handle) for handle in self._workers)
        )
        self._server = await asyncio.start_server(
            functools.partial(
                serve_connection, handle=self._route, span_name="front.request",
                tracer=self.tracer, metrics=self.metrics,
                max_body_bytes=self.config.worker.max_body_bytes,
            ),
            self.config.host, self.config.port,
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._supervisor = asyncio.ensure_future(self._supervise())
        return self.host, self.port

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight work, stop workers, unlink."""
        self._closing = True
        if self._loop is None:  # never started: only segments to release
            for shared in self._shared.values():
                shared.destroy()
            self._shared.clear()
            return
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
            self._supervisor = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = self._loop.time() + self.config.shutdown_timeout
        while (
            any(h.inflight for h in self._workers)
            and self._loop.time() < deadline
        ):
            await asyncio.sleep(self.config.drain_poll_interval)
        for handle in self._workers:
            # Close idle connections first: from Python 3.12 a worker's
            # drain waits for every open connection to it.
            handle.mark_dead()
            if handle.process.is_alive():
                handle.process.terminate()  # SIGTERM → worker drains
        for handle in self._workers:
            await self._loop.run_in_executor(
                None, handle.process.join, self.config.shutdown_timeout
            )
            if handle.process.is_alive():
                handle.process.kill()
                await self._loop.run_in_executor(
                    None, handle.process.join, 5.0
                )
            handle.conn.close()
        for shared in self._shared.values():
            shared.destroy()
        self._shared.clear()

    @property
    def url(self) -> str:
        """Base URL once started."""
        return f"http://{self.host}:{self.port}"

    # ----- worker management ---------------------------------------------

    def _fork_worker(self, worker_id: int, restarts: int = 0) -> WorkerHandle:
        parent_conn, child_conn = _FORK.Pipe()
        # The child closes its copies of every front-side pipe end, so
        # its own pipe reaches EOF once the front is gone.
        front_ends = [parent_conn] + [handle.conn for handle in self._workers]
        process = _FORK.Process(
            target=_worker_main,
            name=f"repro-serve-worker-{worker_id}",
            args=(
                worker_id,
                child_conn,
                front_ends,
                self.databases,
                {
                    name: manifest.to_json()
                    for name, manifest in self._manifests.items()
                },
                self._baselines,
                self._default,
                self.config.worker,
                self.config.warm,
                self.config.trace_dir,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.metrics.count("workers_spawned")
        return WorkerHandle(
            worker_id=worker_id,
            process=process,
            conn=parent_conn,
            restarts=restarts,
        )

    async def _await_ready(self, handle: WorkerHandle) -> None:
        loop = asyncio.get_running_loop()
        ok = await loop.run_in_executor(
            None, handle.conn.poll, self.config.worker_startup_timeout
        )
        if not ok:
            raise RuntimeError(
                f"worker {handle.worker_id} did not report ready within "
                f"{self.config.worker_startup_timeout}s"
            )
        try:
            message = await loop.run_in_executor(None, handle.conn.recv)
        except (EOFError, OSError) as exc:
            raise RuntimeError(
                f"worker {handle.worker_id} died during startup: {exc}"
            ) from None
        if not (isinstance(message, tuple) and message[0] == "ready"):
            raise RuntimeError(
                f"worker {handle.worker_id} sent {message!r} instead of ready"
            )
        handle.port = int(message[1])
        handle.state = READY

    async def _supervise(self) -> None:
        """Detect dead workers; respawn them against current segments.

        One crashed (or crash-looping) worker must never take the
        supervisor down with it, so each respawn failure is counted and
        retried on the next heartbeat rather than raised.
        """
        while True:
            await asyncio.sleep(self.config.heartbeat_interval)
            for index, handle in enumerate(self._workers):
                if handle.process.is_alive():
                    continue
                self._bury(handle)
                if not self.config.respawn or self._closing:
                    continue
                replacement = None
                try:
                    replacement = self._fork_worker(
                        handle.worker_id, restarts=handle.restarts + 1
                    )
                    await self._await_ready(replacement)
                except (RuntimeError, OSError):
                    self.metrics.count("worker_respawn_failures")
                    # next heartbeat retries: the DEAD handle stays in
                    # the slot (restarts keeps counting the attempts)
                    handle.restarts += 1
                    if replacement is not None:
                        if replacement.process.is_alive():
                            replacement.process.kill()
                        replacement.conn.close()
                    continue
                self.metrics.count("worker_respawns")
                handle.conn.close()
                self._workers[index] = replacement

    def _bury(self, handle: WorkerHandle) -> None:
        """Mark a worker whose process died DEAD, counting the death once
        whether a forward or the supervisor saw it first."""
        if handle.state != DEAD:
            handle.mark_dead()
            self.metrics.count("worker_deaths")

    def _route_key(self, body: bytes) -> Optional[bytes]:
        """The rendezvous key of a forwarded request body.

        ``(model or the pool default, db, normalized question)``: the
        part of a response-cache key that every format and decode of
        one question share, so they share a worker.  ``None`` when the
        body is not a JSON object with a string ``question``; the
        worker then answers the 400.
        """
        try:
            payload = json.loads(body)
        except (ValueError, RecursionError):
            return None
        if not isinstance(payload, dict):
            return None
        question = payload.get("question")
        if not isinstance(question, str):
            return None
        key = [
            payload.get("model") or self._default,
            payload.get("db"),
            normalize_question(question),
        ]
        return json.dumps(key).encode("utf-8")

    def _pick_worker(
        self, key: Optional[bytes], failed: Sequence[WorkerHandle] = ()
    ) -> Optional[WorkerHandle]:
        """The READY worker for a request with rendezvous *key*.

        Workers rank by a stable hash of (key, worker slot); the first
        that has not *failed* this request takes it, unless its
        in-flight count is at the bound, in which case the least-loaded
        one does (ties by rank).  A keyless request goes to the
        least-loaded worker.
        """
        ready = [
            handle for handle in self._workers
            if handle.state == READY and handle.process.is_alive()
        ]
        if key is not None:
            ready.sort(
                key=lambda handle: _rendezvous_score(key, handle.worker_id),
                reverse=True,
            )
        candidates = [handle for handle in ready if handle not in failed]
        if not candidates:
            return None
        total = sum(handle.inflight for handle in ready)
        bound = math.ceil(LOAD_BOUND * (total + 1) / len(ready))
        handle = candidates[0]
        if key is None or handle.inflight >= bound:
            handle = min(candidates, key=lambda h: h.inflight)
        if key is not None and handle is not ready[0]:
            self.metrics.count("affinity_spills")
        return handle

    async def _next_worker(
        self, key: Optional[bytes], failed: Sequence[WorkerHandle]
    ) -> Optional[WorkerHandle]:
        """A READY worker, waiting out respawns/drains if none is."""
        deadline = self._loop.time() + self.config.ready_wait_timeout
        while True:
            handle = self._pick_worker(key, failed)
            if handle is not None or self._loop.time() >= deadline:
                return handle
            await asyncio.sleep(self.config.drain_poll_interval)

    # ----- request path ---------------------------------------------------

    async def _route(
        self, method: str, target: str, body: bytes, span
    ) -> Tuple[int, Union[dict, bytes], Dict[str, str]]:
        path = target.split("?", 1)[0]
        # Pre-encoded, as bytes pass the connection loop untouched: the
        # pool's own documents carry no latency_ms or trace_id field.
        if path in ("/healthz", "/metrics"):
            if method != "GET":
                raise _HTTPError(405, f"{path} only supports GET")
            fetch = self._healthz if path == "/healthz" else self._metrics
            return 200, json.dumps(await fetch()).encode(), {}
        if path in ("/translate", "/pipeline"):
            if method != "POST":
                raise _HTTPError(405, f"{path} only supports POST")
            return await self._forward(method, path, body, span)
        raise _HTTPError(404, f"no such endpoint: {path}")

    async def _forward(
        self, method: str, path: str, body: bytes, span
    ) -> Tuple[int, Union[dict, bytes], Dict[str, str]]:
        """Route one request to a worker, re-queueing on broken workers.

        Only connection-level failures retry (refused, reset, truncated
        response): those mean the worker never finished the request.  A
        retry skips every worker that already failed it.  A worker's own
        error statuses (429/504/...) pass through verbatim — retrying
        them would double decode work the worker already accounted for.
        """
        headers: Dict[str, str] = {}
        if span.trace_id:
            headers["X-Trace-Id"] = span.trace_id
            if span.context is not None and span.context.span_id:
                headers["X-Parent-Span"] = span.context.span_id
        key = self._route_key(body)
        failed: List[WorkerHandle] = []
        last_error: Optional[BaseException] = None
        for attempt in range(self.config.max_forward_attempts):
            handle = await self._next_worker(key, failed)
            if handle is None:
                break
            if attempt:
                self.metrics.count("front_retries")
            handle.inflight += 1
            try:
                status, payload = await self._proxy_once(
                    handle, method, path, body, headers
                )
            except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
                last_error = exc
                failed.append(handle)
                if not handle.process.is_alive():
                    self._bury(handle)
                    self.metrics.count("worker_crash_requeues")
                continue
            else:
                span.set_attribute("worker_id", handle.worker_id)
                return status, payload, {"X-Worker-Id": str(handle.worker_id)}
            finally:
                handle.inflight -= 1
        detail = f": {last_error}" if last_error else ""
        self.metrics.count("front_unrouted")
        return 503, {"error": f"no worker available{detail}"}, {}

    async def _proxy_once(
        self,
        handle: WorkerHandle,
        method: str,
        path: str,
        body: bytes,
        headers: Dict[str, str],
    ) -> Tuple[int, bytes]:
        """One exchange with *handle*'s worker over a keep-alive connection.

        Takes an idle connection, or opens one.  It goes back on the
        idle list only after a complete response that did not say
        ``Connection: close``; an exception or a cancellation closes it,
        as its framing can no longer be trusted.
        """
        if handle.idle:
            reader, writer = handle.idle.pop()
        else:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", handle.port
            )
            self.metrics.count("worker_connects")
        reusable = False
        try:
            lines = [
                f"{method} {path} HTTP/1.1",
                f"Host: 127.0.0.1:{handle.port}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
            ]
            lines.extend(f"{name}: {value}" for name, value in headers.items())
            writer.write(
                ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
            )
            await writer.drain()
            status_line = await reader.readline()
            if not status_line:
                raise ConnectionResetError("worker closed before replying")
            status = int(status_line.split()[1])
            response_headers = await read_http_headers(reader)
            length = int(response_headers.get("content-length", "0") or "0")
            payload = await reader.readexactly(length) if length else b""
            reusable = response_headers.get("connection", "").lower() != "close"
            return status, payload
        finally:
            if reusable and handle.state != DEAD:
                handle.idle.append((reader, writer))
            else:
                writer.close()

    async def _worker_get(
        self, handle: WorkerHandle, path: str, timeout: float = 5.0
    ) -> dict:
        try:
            status, payload = await asyncio.wait_for(
                self._proxy_once(handle, "GET", path, b"", {}),
                timeout=timeout,
            )
            doc = json.loads(payload.decode("utf-8"))
            if status != 200:
                return {"error": doc.get("error", f"HTTP {status}")}
            return doc
        except (OSError, asyncio.TimeoutError, ValueError) as exc:
            return {"error": str(exc)}

    async def _worker_post(
        self,
        handle: WorkerHandle,
        path: str,
        payload: dict,
        timeout: float = 60.0,
    ) -> dict:
        body = json.dumps(payload).encode("utf-8")
        status, raw = await asyncio.wait_for(
            self._proxy_once(handle, "POST", path, body, {}),
            timeout=timeout,
        )
        doc = json.loads(raw.decode("utf-8"))
        if status != 200:
            raise RuntimeError(
                f"worker {handle.worker_id} {path} failed: "
                f"{doc.get('error', status)}"
            )
        return doc

    # ----- telemetry ------------------------------------------------------

    async def _worker_docs(self, path: str) -> List[dict]:
        """Every worker's ``GET path`` document, in worker order; a
        worker that is not serving reports an ``error`` instead."""
        return await asyncio.gather(
            *(
                self._worker_get(handle, path)
                if handle.state in (READY, DRAINING)
                and handle.process.is_alive()
                else _absent(handle)
                for handle in self._workers
            )
        )

    async def _healthz(self) -> dict:
        """Per-worker liveness + queue depth, plus the weights doc."""
        docs = await self._worker_docs("/healthz")
        workers = []
        for handle, doc in zip(self._workers, docs):
            entry = handle.describe()
            if "queue_depth" in doc:
                entry["queue_depth"] = doc["queue_depth"]
            if "error" in doc:
                entry["error"] = doc["error"]
            if "weights" in doc:
                entry["weights"] = doc["weights"]
            workers.append(entry)
        # A worker killed since the last heartbeat is still READY until
        # the supervisor buries it; count only live ones, as routing does.
        ready = sum(
            1 for h in self._workers
            if h.state == READY and h.process.is_alive()
        )
        if self._closing:
            status = "draining"
        elif ready == len(self._workers):
            status = "ok"
        elif ready:
            status = "degraded"
        else:
            status = "down"
        return {
            "status": status,
            "workers": workers,
            "worker_count": len(self._workers),
            "ready_workers": ready,
            "default_model": self._default,
            "databases": len(self.databases),
            "generation": self.generation,
            "weights": shared_segments_report(self._shared),
            "uptime_seconds": self.metrics.uptime,
        }

    async def _metrics(self) -> dict:
        """Front report + per-worker reports + exact-merge aggregates."""
        docs = await self._worker_docs("/metrics")
        per_worker: Dict[str, dict] = {}
        counters: Dict[str, float] = {}
        latency, batches = [], []
        for handle, doc in zip(self._workers, docs):
            per_worker[str(handle.worker_id)] = doc
            for name, value in (doc.get("counters") or {}).items():
                counters[name] = counters.get(name, 0) + value
            if doc.get("latency_ms"):
                latency.append(doc["latency_ms"])
            if doc.get("batch_size"):
                batches.append(doc["batch_size"])
        return {
            "uptime_seconds": self.metrics.uptime,
            "front": self.metrics.report(tracer=self.tracer),
            "workers": per_worker,
            "aggregate": {
                "counters": counters,
                "latency_ms": merge_summaries(latency),
                "batch_size": merge_summaries(batches),
            },
            "weights": shared_segments_report(self._shared),
            "generation": self.generation,
            "pool": {
                "workers": len(self._workers),
                "restarts": sum(h.restarts for h in self._workers),
            },
        }

    # ----- hot swap / invalidation ---------------------------------------

    async def swap_model_async(
        self, name: str, model, in_vocab, out_vocab, default: bool = False
    ) -> dict:
        """Zero-downtime rolling swap of *name* to *model*.

        New weights go into a fresh segment stamped generation+1; each
        worker in turn is drained (taken out of rotation, in-flight
        requests finish), told to re-attach via ``/control/swap`` (which
        re-registers the model and fires its cache-invalidation
        listeners), and put back.  Other workers keep serving, so a
        pool of >= 2 never rejects a request; the old segment is
        destroyed once every worker has moved.
        """
        async with self._swap_lock:
            self.generation += 1
            shared = share_model(model, in_vocab, out_vocab)
            shared.set_generation(self.generation)
            old = self._shared.get(name)
            self._manifests[name] = shared.manifest
            self._shared[name] = shared
            if default:
                self._default = name
            swapped = []
            for handle in list(self._workers):
                if handle.state != READY:
                    continue
                handle.state = DRAINING
                try:
                    while handle.inflight > 0:
                        await asyncio.sleep(self.config.drain_poll_interval)
                    result = await self._worker_post(
                        handle,
                        "/control/swap",
                        {
                            "model": name,
                            "manifest": shared.manifest.to_json(),
                            "default": default,
                        },
                    )
                    swapped.append(
                        {"worker_id": handle.worker_id, **result}
                    )
                finally:
                    if handle.state == DRAINING:
                        handle.state = READY
            if old is not None and old is not shared:
                old.destroy()
            self.metrics.count("hot_swaps")
            return {
                "model": name,
                "generation": self.generation,
                "segment": shared.manifest.segment,
                "workers": swapped,
            }

    async def invalidate_model_async(self, name: str) -> dict:
        """Drop *name*'s cached responses/encodings in every worker."""
        dropped = []
        for handle in self._workers:
            if handle.state not in (READY, DRAINING):
                continue
            result = await self._worker_post(
                handle, "/control/invalidate", {"model": name}
            )
            dropped.append({"worker_id": handle.worker_id, **result})
        return {"model": name, "workers": dropped}

    def swap_model(
        self,
        name: str,
        model,
        in_vocab,
        out_vocab,
        default: bool = False,
        timeout: float = 120.0,
    ) -> dict:
        """Blocking :meth:`swap_model_async` for callers off the loop."""
        future = asyncio.run_coroutine_threadsafe(
            self.swap_model_async(
                name, model, in_vocab, out_vocab, default=default
            ),
            self._loop,
        )
        return future.result(timeout)

    def invalidate_model(self, name: str, timeout: float = 60.0) -> dict:
        """Blocking :meth:`invalidate_model_async`."""
        future = asyncio.run_coroutine_threadsafe(
            self.invalidate_model_async(name), self._loop
        )
        return future.result(timeout)


def _rendezvous_score(key: bytes, worker_id: int) -> bytes:
    """Stable across processes and runs, unlike ``hash()``."""
    return hashlib.blake2b(b"%d:%s" % (worker_id, key), digest_size=8).digest()


async def _absent(handle: WorkerHandle) -> dict:
    return {"error": f"worker {handle.worker_id} is {handle.state}"}


# ----- worker process -------------------------------------------------------


def _worker_main(
    worker_id: int,
    conn,
    front_ends: list,
    databases: Dict[str, Database],
    manifests: Dict[str, dict],
    baselines: bool,
    default: Optional[str],
    server_config: ServerConfig,
    warm: bool,
    trace_dir: Optional[str],
) -> None:
    """Body of one forked decode worker.

    Attaches every shared segment, rebuilds translators over the shared
    views, and serves a private loopback :class:`InferenceServer` until
    SIGTERM, or until *conn* reaches EOF because the front died.  Exits
    via ``os._exit`` so the parent's atexit hooks (and its
    resource-tracker bookkeeping) never run twice.
    """
    from repro.obs.export import JsonlExporter
    from repro.serve.registry import (
        BaselineTranslator,
        ModelRegistry,
        NeuralTranslator,
    )
    from repro.serve.server import InferenceServer

    for front_end in front_ends:
        front_end.close()

    exporter = None
    try:
        tracer = None
        if trace_dir:
            exporter = JsonlExporter(
                Path(trace_dir) / f"worker-{worker_id}.jsonl"
            )
            tracer = Tracer(exporter=exporter)

        registry = ModelRegistry()
        attachments: Dict[str, SharedModel] = {}
        for name, payload in manifests.items():
            attached = SharedModel.attach(SharedManifest.from_json(payload))
            model, in_vocab, out_vocab = attached.views()
            attachments[name] = attached
            registry.register(
                name,
                NeuralTranslator(
                    model, in_vocab, out_vocab,
                    source=f"shm://{attached.manifest.segment}",
                ),
                default=(name == default),
            )
        if baselines:
            registry.register_baselines()
        if default is not None and default in registry:
            registry.set_default(default)

        def control_swap(payload: dict) -> dict:
            manifest = SharedManifest.from_json(payload["manifest"])
            attached = SharedModel.attach(manifest)
            model, in_vocab, out_vocab = attached.views()
            # register() fires the server's swap listeners, which drop
            # every cached response/encoding derived from the old weights.
            registry.register(
                payload["model"],
                NeuralTranslator(
                    model, in_vocab, out_vocab,
                    source=f"shm://{manifest.segment}",
                ),
                default=bool(payload.get("default", False)),
            )
            stale = attachments.get(payload["model"])
            attachments[payload["model"]] = attached
            if stale is not None:
                stale.close()
            return {
                "model": payload["model"],
                "segment": manifest.segment,
                "generation": attached.generation,
                "precision": manifest.precision,
            }

        def control_invalidate(payload: dict) -> dict:
            name = payload["model"]
            dropped = server.encoder_cache.invalidate_model(name)
            dropped += server.response_cache.invalidate_model(name)
            return {"model": name, "dropped": dropped}

        def health_extra() -> dict:
            return {
                "weights": {
                    name: {
                        "segment": handle.manifest.segment,
                        "bytes": handle.nbytes,
                        "generation": handle.generation,
                        "precision": handle.manifest.precision,
                    }
                    for name, handle in sorted(attachments.items())
                },
            }

        server = InferenceServer(
            registry,
            databases,
            config=dataclasses.replace(
                server_config, host="127.0.0.1", port=0
            ),
            tracer=tracer,
            worker_id=worker_id,
            control_handlers={
                "swap": control_swap,
                "invalidate": control_invalidate,
            },
            health_extra=health_extra,
        )

        if warm:
            registry.warm(databases)

        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        stop = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, stop.set)
            loop.add_signal_handler(signal.SIGINT, stop.set)
        except (NotImplementedError, RuntimeError):
            signal.signal(
                signal.SIGTERM,
                lambda *_: loop.call_soon_threadsafe(stop.set),
            )

        def front_closed() -> None:
            # The front never writes to the pipe: readable means EOF.
            loop.remove_reader(conn.fileno())
            stop.set()

        async def serve() -> None:
            _, port = await server.start()
            conn.send(("ready", port))
            loop.add_reader(conn.fileno(), front_closed)
            await stop.wait()
            await server.shutdown()

        loop.run_until_complete(serve())
        try:
            conn.send(("stopped", worker_id))
        except (BrokenPipeError, OSError):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        if exporter is not None:
            try:
                exporter.close()
            except Exception:  # noqa: BLE001 - exiting anyway
                pass
        # Skip the parent's inherited atexit/multiprocessing teardown:
        # this process owns nothing but its (closed) server socket.
        os._exit(0)
