"""Multi-process serving: worker pool, crash recovery, rolling hot-swap.

Everything here runs real forked processes over real sockets, except
the routing unit tests, which drive an unstarted pool over stub
workers.  The invariants: pool outputs are bit-identical to in-process
decode, weights are resident once (shared segments) no matter the
worker count, a repeat reaches the worker that cached it, a SIGKILLed
worker never loses a request, a rolling swap never serves stale cache
entries, and shutdown leaves ``/dev/shm`` clean.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.neural import Seq2Vis, build_dataset
from repro.obs import JsonlExporter, Tracer, load_spans, span_tree, summarize
from repro.serve import (
    BackgroundServer,
    DecodeConfig,
    LoadGenerator,
    PoolConfig,
    ServerConfig,
    UnknownModelError,
    WorkerPool,
)
from repro.serve.pool import READY, WorkerHandle
from repro.serve.translate import translate_batch

QUESTIONS = [
    "how many rows per category?",
    "show the average price by type",
    "total amount for each name, sorted descending",
    "plot a pie of counts per status",
    "what is the number of items per year?",
    "compare the minimum score across groups",
]


def _shm_segments() -> set:
    return {
        name for name in os.listdir("/dev/shm")
        if name.startswith("repro-weights-")
    }


def _running(pid: int) -> bool:
    """Whether *pid* is a live process (a zombie has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def _post(client, path: str, body: bytes):
    """One raw POST to *client*'s address: ``(status, X-Worker-Id, doc)``."""
    connection = http.client.HTTPConnection(
        client.host, client.port, timeout=30
    )
    try:
        connection.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        doc = json.loads(response.read().decode("utf-8"))
        return response.status, response.getheader("X-Worker-Id"), doc
    finally:
        connection.close()


def _worker_config() -> ServerConfig:
    return ServerConfig(max_batch_size=4, flush_interval=0.01)


@pytest.fixture(scope="module")
def stack(small_nvbench):
    dataset = build_dataset(small_nvbench.pairs[:60], small_nvbench.databases)
    model = Seq2Vis(
        len(dataset.in_vocab), len(dataset.out_vocab), "attention", 16, 24,
        seed=2, dtype="float32",
    )
    return model, dataset, small_nvbench.databases


def _reference_tokens(model, dataset, databases, decode=None):
    requests = [
        (question, databases[name])
        for question, name in zip(QUESTIONS, sorted(databases))
    ]
    results = translate_batch(
        model, dataset.in_vocab, dataset.out_vocab, requests,
        decode=decode,
    )
    return [r.tokens for r in results]


def _pool(stack, workers=2, **overrides) -> WorkerPool:
    model, dataset, databases = stack
    config = PoolConfig(workers=workers, worker=_worker_config(), **overrides)
    pool = WorkerPool(databases, config)
    pool.share_model(
        "attn", model, dataset.in_vocab, dataset.out_vocab, default=True
    )
    return pool


@pytest.fixture(scope="module")
def running(stack):
    """One shared 2-worker pool for the read-mostly tests."""
    pool = _pool(stack)
    with BackgroundServer(pool) as background:
        yield pool, background.client()


class TestPoolServing:
    def test_outputs_bit_identical_to_in_process(self, running, stack):
        model, dataset, databases = stack
        _, client = running
        expected = _reference_tokens(model, dataset, databases)
        for (question, db_name), tokens in zip(
            zip(QUESTIONS, sorted(databases)), expected
        ):
            response = client.translate(question, db_name, use_cache=False)
            assert response["tokens"] == tokens

    def test_beam_outputs_bit_identical(self, running, stack):
        model, dataset, databases = stack
        _, client = running
        decode = DecodeConfig(beam_width=3, num_candidates=2)
        expected = _reference_tokens(model, dataset, databases, decode=decode)
        for (question, db_name), tokens in zip(
            zip(QUESTIONS, sorted(databases)), expected
        ):
            response = client.translate(
                question, db_name, use_cache=False, beam_width=3, candidates=2
            )
            assert response["tokens"] == tokens

    def test_healthz_reports_per_worker_liveness(self, running):
        _, client = running
        doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["worker_count"] == 2 and doc["ready_workers"] == 2
        for entry in doc["workers"]:
            assert entry["alive"] is True
            assert entry["state"] == "ready"
            assert isinstance(entry["queue_depth"], int)
            assert entry["weights"]["attn"]["generation"] >= 1
        # client.workers() is the sweep-harness view of the same data
        assert [w["worker_id"] for w in client.workers()] == [0, 1]

    def test_weights_resident_once_not_per_worker(self, running):
        pool, client = running
        doc = client.healthz()
        segment_bytes = doc["weights"]["shared_bytes"]
        assert segment_bytes > 0
        # every worker reports the same segment, not a private copy
        segments = {
            entry["weights"]["attn"]["segment"] for entry in doc["workers"]
        }
        assert len(segments) == 1
        assert pool._shared["attn"].nbytes == segment_bytes

    def test_metrics_aggregates_across_workers(self, running, stack):
        _, _, databases = stack
        _, client = running
        db_name = sorted(databases)[0]
        for question in QUESTIONS:
            client.translate(question, db_name, use_cache=False)
        doc = client.metrics()
        assert set(doc["workers"]) == {"0", "1"}
        aggregate = doc["aggregate"]
        per_worker_total = sum(
            w.get("counters", {}).get("requests_total", 0)
            for w in doc["workers"].values()
        )
        assert aggregate["counters"]["requests_total"] == per_worker_total
        assert aggregate["latency_ms"]["count"] == per_worker_total
        assert doc["front"]["counters"]["requests_total"] >= len(QUESTIONS)
        assert doc["weights"]["shared_bytes"] > 0

    def test_front_404_and_405_pass_through(self, running):
        _, client = running
        status, body = client.request("GET", "/nope")
        assert status == 404 and "error" in body
        status, _ = client.request("GET", "/translate")
        assert status == 405

    def test_repeat_is_answered_from_the_cache(self, running, stack):
        _, _, databases = stack
        _, client = running
        db_name = sorted(databases)[1]
        question = "count the records of every kind of owner"
        assert client.translate(question, db_name)["cached"] is False
        # a case and spacing variant shares the response-cache slot
        repeat = client.translate("  " + question.upper(), db_name)
        assert repeat["cached"] is True

    def test_beam_after_greedy_reuses_the_encoding(self, running, stack):
        _, _, databases = stack
        _, client = running
        db_name = sorted(databases)[1]
        question = "which owner has the largest total of entries"

        def encoder_hits():
            workers = client.metrics()["workers"].values()
            return sum(doc["encoder_cache"]["hits"] for doc in workers)

        before = encoder_hits()
        client.translate(question, db_name, use_cache=False)
        client.translate(question, db_name, use_cache=False, beam_width=3)
        assert encoder_hits() == before + 1

    def test_body_that_is_not_json_gets_the_workers_400(self, running):
        _, client = running
        status, worker_id, doc = _post(client, "/translate", b"{not json")
        assert status == 400 and "not valid JSON" in doc["error"]
        assert worker_id is not None  # a worker answered, not the front

    def test_worker_error_statuses_not_retried(self, running):
        _, client = running
        status, body = client.request(
            "POST", "/translate", {"question": "hi", "db": "missing-db"}
        )
        assert status == 404
        assert "unknown database" in body["error"]

    def test_malformed_framing_gets_its_status(
        self, running, malformed_exchange
    ):
        _, client = running

        def rejected():
            counters = client.metrics()["front"]["counters"]
            return counters.get("rejected_framing", 0)

        before = rejected()
        reply, status = malformed_exchange(client.host, client.port)
        head = reply.split(b"\r\n\r\n", 1)[0]
        assert head.startswith(b"HTTP/1.1 %d " % status), reply
        assert b"Connection: close" in head
        assert client.healthz()["status"] == "ok"
        assert rejected() == before + 1


class TestCrashRecovery:
    def test_killed_worker_requests_requeued_and_answered(self, stack):
        _, dataset, databases = stack
        pool = _pool(stack)
        with BackgroundServer(pool) as background:
            client = background.client()
            db_name = sorted(databases)[0]
            victim = client.healthz()["workers"][0]["pid"]
            requests = [
                {"question": q, "db": db_name, "use_cache": False}
                for q in QUESTIONS * 5
            ]
            generator = LoadGenerator(client, concurrency=4)
            outcome = {}

            def fire():
                outcome["report"], outcome["responses"] = generator.run(
                    requests
                )

            thread = threading.Thread(target=fire)
            thread.start()
            time.sleep(0.05)  # load in flight
            os.kill(victim, signal.SIGKILL)
            thread.join(timeout=120)
            assert not thread.is_alive()
            report = outcome["report"]
            # every request answered: crash-hit ones were re-queued onto
            # the surviving worker, none dropped or errored
            assert report.errors == 0
            assert all(r is not None for r in outcome["responses"])
            deadline = time.time() + 30
            while time.time() < deadline:
                doc = client.healthz()
                if doc["ready_workers"] == 2:
                    break
                time.sleep(0.2)
            assert doc["ready_workers"] == 2
            assert any(w["restarts"] >= 1 for w in doc["workers"])
            # the respawned worker serves correctly
            response = client.translate(
                QUESTIONS[0], db_name, use_cache=False
            )
            assert response["tokens"] is not None or "error" in response


    def test_killed_worker_with_idle_connections_is_retried(self, stack):
        _, _, databases = stack
        pool = _pool(stack)
        with BackgroundServer(pool) as background:
            client = background.client()
            body = json.dumps({
                "question": QUESTIONS[2], "db": sorted(databases)[0],
                "use_cache": False,
            }).encode("utf-8")
            status, worker_id, _ = _post(client, "/translate", body)
            assert status == 200
            victim = pool._workers[int(worker_id)]
            assert victim.idle, "the front should keep its connection open"
            os.kill(victim.process.pid, signal.SIGKILL)
            # the question still hashes to the victim's slot: the stale
            # connection fails, and the retry goes to the other worker
            status, _, doc = _post(client, "/translate", body)
            assert status == 200, doc
            assert doc["tokens"]

    def test_a_death_a_forward_sees_first_is_counted_once(self, stack):
        """A worker dies while a forward waits on its reply: the forward
        marks it dead, and the death is still counted, once."""
        _, _, databases = stack
        pool = _pool(stack)
        with BackgroundServer(pool) as background:
            client = background.client()
            body = json.dumps({
                "question": QUESTIONS[3], "db": sorted(databases)[0],
                "use_cache": False,
            }).encode("utf-8")
            status, worker_id, _ = _post(client, "/translate", body)
            assert status == 200
            victim = pool._workers[int(worker_id)].process.pid
            # Stopped, the worker still looks alive, so the repeat is
            # forwarded to it and waits; the kill then lands mid-forward.
            os.kill(victim, signal.SIGSTOP)
            reply = {}
            thread = threading.Thread(
                target=lambda: reply.update(doc=_post(client, "/translate", body))
            )
            thread.start()
            time.sleep(0.5)
            os.kill(victim, signal.SIGKILL)
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert reply["doc"][0] == 200, reply
            deadline = time.time() + 60
            while time.time() < deadline:
                counters = client.metrics()["front"]["counters"]
                if counters.get("worker_respawns"):
                    break
                time.sleep(0.1)
            assert counters.get("worker_deaths") == 1, counters
            assert counters.get("worker_respawns") == 1, counters


class _Alive:
    """A stub worker process that is always alive."""

    def is_alive(self) -> bool:
        return True


class TestRouting:
    """Rendezvous routing with bounded loads, unit-tested on stub workers
    (no fork), and the keep-alive connections it forwards over."""

    @staticmethod
    def _stub_pool(workers: int = 4) -> WorkerPool:
        pool = WorkerPool({}, PoolConfig(workers=workers))
        pool._default = "attn"
        pool._workers = [
            WorkerHandle(worker_id, _Alive(), conn=None, state=READY)
            for worker_id in range(workers)
        ]
        return pool

    @staticmethod
    def _key(pool: WorkerPool, payload: dict) -> bytes:
        return pool._route_key(json.dumps(payload).encode("utf-8"))

    def _keys(self, pool: WorkerPool, count: int = 1000) -> list:
        return [
            self._key(pool, {"question": f"question {i}", "db": "flights"})
            for i in range(count)
        ]

    @staticmethod
    def _spills(pool: WorkerPool) -> int:
        return pool.metrics.counters.get("affinity_spills", 0)

    def test_same_key_same_worker_and_keys_spread(self):
        pool = self._stub_pool()
        keys = self._keys(pool)
        owners = [pool._pick_worker(key).worker_id for key in keys]
        assert owners == [pool._pick_worker(key).worker_id for key in keys]
        assert sorted(set(owners)) == [0, 1, 2, 3]
        assert min(owners.count(worker) for worker in range(4)) > 200
        # requests that share a response-cache slot (or only an
        # encoding) share a key, whatever their format or decode
        greedy = self._key(pool, {"question": "Show  Prices", "db": "f"})
        beam = self._key(pool, {
            "question": " show prices", "db": "f", "model": "attn",
            "beam_width": 3, "format": "vega-lite",
        })
        assert greedy == beam
        assert self._spills(pool) == 0

    def test_keyless_requests_go_to_the_least_loaded_worker(self):
        pool = self._stub_pool()
        for body in (b"{not json", b"[1]", b'{"question": 3}', b"{}"):
            assert pool._route_key(body) is None
        for handle, inflight in zip(pool._workers, (2, 0, 1, 0)):
            handle.inflight = inflight
        assert pool._pick_worker(None).worker_id == 1
        assert self._spills(pool) == 0

    def test_a_dead_worker_moves_only_its_keys(self):
        pool = self._stub_pool()
        keys = self._keys(pool)
        before = [pool._pick_worker(key) for key in keys]
        pool._workers[2].mark_dead()
        after = [pool._pick_worker(key) for key in keys]
        moved = 0
        for old, new in zip(before, after):
            if old.worker_id == 2:
                assert new.worker_id != 2
                moved += 1
            else:
                assert new is old
        assert moved > 0
        assert self._spills(pool) == 0

    def test_a_worker_at_the_bound_spills_to_the_least_loaded(self):
        pool = self._stub_pool()
        key = self._keys(pool, 1)[0]
        first = pool._pick_worker(key)
        runner_up = pool._pick_worker(key, failed=[first])
        spills = self._spills(pool)
        for handle in pool._workers:
            handle.inflight = 1
        # bound = ceil(1.25 * (4 + 1) / 4) = 2: one in flight stays put
        assert pool._pick_worker(key) is first
        first.inflight = 2
        # at the bound: the least loaded takes it, ties by rendezvous rank
        assert pool._pick_worker(key) is runner_up
        assert self._spills(pool) == spills + 1

    def test_a_retry_skips_the_workers_that_failed(self):
        pool = self._stub_pool()
        key = self._keys(pool, 1)[0]
        failed = []
        for expected_spills in range(4):
            handle = pool._pick_worker(key, failed=failed)
            assert handle not in failed
            assert self._spills(pool) == expected_spills
            failed.append(handle)
        assert pool._pick_worker(key, failed=failed) is None

    def test_forwarded_requests_reuse_worker_connections(self, stack):
        _, _, databases = stack
        pool = _pool(stack)
        with BackgroundServer(pool) as background:
            client = background.client()
            db_name = sorted(databases)[0]
            for question in (QUESTIONS * 2)[:10]:
                client.translate(question, db_name, use_cache=False)
            counters = client.metrics()["front"]["counters"]
        assert 1 <= counters["worker_connects"] <= 2


class TestRollingHotSwap:
    def test_swap_under_load_zero_failures_no_stale_cache(self, stack):
        model, dataset, databases = stack
        pool = _pool(stack)
        new_model = Seq2Vis(
            len(dataset.in_vocab), len(dataset.out_vocab), "attention",
            16, 24, seed=9, dtype="float32",
        )
        with BackgroundServer(pool) as background:
            client = background.client()
            db_name = sorted(databases)[0]
            # prime the response caches on both workers pre-swap
            for _ in range(4):
                primed = client.translate(
                    QUESTIONS[0], db_name, use_cache=True
                )
            requests = [
                {"question": q, "db": db_name, "use_cache": False}
                for q in QUESTIONS * 4
            ]
            generator = LoadGenerator(client, concurrency=4)
            outcome = {}

            def fire():
                outcome["report"], _ = generator.run(requests)

            thread = threading.Thread(target=fire)
            thread.start()
            time.sleep(0.05)
            result = pool.swap_model(
                "attn", new_model, dataset.in_vocab, dataset.out_vocab,
                default=True,
            )
            thread.join(timeout=120)
            assert not thread.is_alive()
            assert outcome["report"].errors == 0, outcome["report"].by_status
            assert result["generation"] == 2
            assert len(result["workers"]) == 2

            # a post-swap request must reflect the new weights even
            # though the same (question, db) was cached pre-swap
            expected = _reference_tokens(new_model, dataset, databases)[0]
            response = client.translate(QUESTIONS[0], db_name, use_cache=True)
            assert response["cached"] is False
            assert response["tokens"] == expected
            # generation is visible everywhere
            doc = client.healthz()
            assert doc["generation"] == 2
            for entry in doc["workers"]:
                assert entry["weights"]["attn"]["generation"] == 2
            # old segment is gone, exactly one segment remains
            assert len(doc["weights"]["segments"]) == 1


class TestLifecycle:
    def test_set_default_rejects_unknown_models(self, stack):
        pool = _pool(stack)
        try:
            with pytest.raises(UnknownModelError):
                pool.set_default("nope")
            with pytest.raises(UnknownModelError):
                pool.set_default("deepeye")  # baselines not registered yet
            pool.register_baselines()
            pool.set_default("deepeye")
            pool.set_default("attn")
        finally:
            asyncio.run(pool.shutdown())  # never started: unlinks segments

    def test_shutdown_leaves_no_shared_segments(self, stack):
        before = _shm_segments()
        pool = _pool(stack)
        with BackgroundServer(pool) as background:
            client = background.client()
            during = _shm_segments() - before
            assert during, "pool should hold at least one segment while up"
            client.healthz()
        assert _shm_segments() - before == set()

    def test_sharing_one_name_twice_leaves_no_segment(self, stack):
        model, dataset, _ = stack
        before = _shm_segments()
        pool = _pool(stack)
        pool.share_model("attn", model, dataset.in_vocab, dataset.out_vocab)
        # the second share destroyed the segment it replaced
        assert len(_shm_segments() - before) == 1
        asyncio.run(pool.shutdown())  # never started: unlinks segments
        assert _shm_segments() - before == set()

    def test_workers_exit_when_the_front_is_killed(self, tmp_path):
        import subprocess
        import sys

        import repro
        from repro.cli import main
        from repro.serve import ServeClient

        corpus = tmp_path / "corpus.json"
        assert main([
            "build-corpus", "--databases", "2", "--pairs-per-db", "3",
            "--row-scale", "0.3", "--seed", "3", "--out", str(corpus),
        ]) == 0
        env = dict(
            os.environ, PYTHONUNBUFFERED="1",
            PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
        )
        front = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--corpus", str(corpus),
             "--workers", "2", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env,
        )
        pids = []
        try:
            line = front.stdout.readline()
            assert line.startswith("serving on http://"), line
            host, port = line.split()[2][len("http://"):].rsplit(":", 1)
            workers = ServeClient(host, int(port)).workers()
            pids = [worker["pid"] for worker in workers]
            assert len(pids) == 2 and all(map(_running, pids))
            front.kill()
            front.wait(10)
            deadline = time.monotonic() + 5.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, pids)), "workers outlived the front"
        finally:
            front.kill()
            front.wait(10)
            front.stdout.close()
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)

    def test_single_worker_pool_serves(self, stack):
        _, dataset, databases = stack
        pool = _pool(stack, workers=1)
        with BackgroundServer(pool) as background:
            client = background.client()
            doc = client.healthz()
            assert doc["worker_count"] == 1
            response = client.translate(
                QUESTIONS[0], sorted(databases)[0], use_cache=False
            )
            assert "tokens" in response


class TestCrossProcessTracing:
    def test_front_and_worker_spans_stitch_from_directory(
        self, stack, tmp_path
    ):
        _, dataset, databases = stack
        trace_dir = tmp_path / "traces"
        pool = _pool(stack, trace_dir=str(trace_dir))
        exporter = JsonlExporter(trace_dir / "front.jsonl")
        pool.tracer = Tracer(exporter=exporter)
        with BackgroundServer(pool) as background:
            client = background.client()
            db_name = sorted(databases)[0]
            response = client.translate(
                QUESTIONS[0], db_name, use_cache=False
            )
            trace_id = response["trace_id"]
        exporter.close()

        records = load_spans(str(trace_dir))  # directory, not a file
        files = {f.name for f in trace_dir.glob("*.jsonl")}
        assert "front.jsonl" in files
        assert any(name.startswith("worker-") for name in files)

        tree = span_tree([r for r in records if r["trace_id"] == trace_id])
        roots = tree[trace_id]
        # one stitched tree: front.request at the root, the worker's
        # http.request (from its own JSONL file) nested beneath it
        assert [root.name for root in roots] == ["front.request"]
        child_names = {child.name for child in roots[0].children}
        assert "http.request" in child_names

        rendered = summarize(records, trace_id=trace_id)
        assert "front.request" in rendered
        assert "http.request" in rendered
