"""Tests for the ``repro.serve`` inference service.

Covers the shared translate path (batched vs. single determinism), the
model registry, the micro-batcher's coalescing/backpressure/drain
behaviour, the LRU response cache, the perf histogram, and the HTTP
server end to end over real sockets.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.neural.data import build_dataset, encode_source_batch
from repro.neural.model import Seq2Vis
from repro.perf import Histogram
from repro.serve import (
    BackgroundServer,
    BaselineTranslator,
    DecodeConfig,
    EncoderCache,
    InferenceServer,
    LoadGenerator,
    MicroBatcher,
    ModelRegistry,
    NeuralTranslator,
    QueueFullError,
    ResponseCache,
    ServeError,
    ServerConfig,
    ServerDrainingError,
    Translator,
    TranslateResult,
    UnknownModelError,
    normalize_question,
    render_spec,
    translate_batch,
    translate_question,
)

QUESTIONS = [
    "how many rows per category?",
    "show the average price by type",
    "total amount for each name, sorted descending",
    "plot a pie of counts per status",
    "what is the number of items per year?",
    "compare the minimum score across groups",
]


@pytest.fixture(scope="module")
def stack(small_nvbench):
    """A dataset, a deterministic model, and the benchmark databases."""
    dataset = build_dataset(small_nvbench.pairs[:60], small_nvbench.databases)
    model = Seq2Vis(
        len(dataset.in_vocab), len(dataset.out_vocab), "attention", 16, 24, seed=2
    )
    return model, dataset, small_nvbench.databases


@pytest.fixture(scope="module")
def registry(stack):
    model, dataset, _ = stack
    reg = ModelRegistry()
    reg.register(
        "attn", NeuralTranslator(model, dataset.in_vocab, dataset.out_vocab)
    )
    reg.register_baselines()
    reg.set_default("attn")
    return reg


@pytest.fixture(scope="module")
def running(registry, stack):
    """One shared server over real sockets for the e2e tests."""
    _, _, databases = stack
    server = InferenceServer(
        registry,
        databases,
        ServerConfig(port=0, max_batch_size=4, flush_interval=0.02),
    )
    with BackgroundServer(server) as background:
        yield server, background.client()


class TestTranslatePath:
    def test_batched_matches_single(self, stack):
        model, dataset, databases = stack
        names = sorted(databases)
        requests = [
            (question, databases[names[i % len(names)]])
            for i, question in enumerate(QUESTIONS)
        ]
        batched = translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, requests
        )
        for (question, database), via_batch in zip(requests, batched):
            alone = translate_question(
                model, dataset.in_vocab, dataset.out_vocab, question, database
            )
            assert via_batch.tokens == alone.tokens
            assert via_batch.vis_text == alone.vis_text
            assert via_batch.db_name == database.name

    def test_padding_is_exact_at_model_level(self, stack):
        model, dataset, _ = stack
        examples = dataset.examples[:3]
        token_lists = [e.src_tokens for e in examples]
        assert len({len(tokens) for tokens in token_lists}) > 1, (
            "fixture should exercise real padding"
        )
        batch = encode_source_batch(
            token_lists, dataset.in_vocab, dataset.out_vocab
        )
        together = model.greedy_decode(
            batch, dataset.out_vocab.bos_id, dataset.out_vocab.eos_id
        )
        for tokens, expected in zip(token_lists, together):
            single = encode_source_batch(
                [tokens], dataset.in_vocab, dataset.out_vocab
            )
            alone = model.greedy_decode(
                single, dataset.out_vocab.bos_id, dataset.out_vocab.eos_id
            )[0]
            assert alone == expected

    def test_empty_batch_rejected(self, stack):
        model, dataset, _ = stack
        assert translate_batch(model, dataset.in_vocab, dataset.out_vocab, []) == []
        with pytest.raises(ValueError):
            encode_source_batch([], dataset.in_vocab, dataset.out_vocab)

    def test_normalize_question(self):
        assert normalize_question("  Show\tME   prices ") == "show me prices"
        assert normalize_question("a b") == normalize_question("A  B")

    def test_render_spec_all_formats(self, flight_db):
        baseline = BaselineTranslator.from_name("deepeye")
        result = baseline.translate_requests(
            [("show the price for each origin", flight_db)]
        )[0]
        assert result.ok, result.error
        assert render_spec(result, flight_db, "text") == result.vis_text
        assert "$schema" in render_spec(result, flight_db, "vega-lite")
        assert "series" in render_spec(result, flight_db, "echarts")
        assert "data" in render_spec(result, flight_db, "plotly")
        assert isinstance(render_spec(result, flight_db, "ascii"), str)
        assert "ggplot" in render_spec(result, flight_db, "ggplot")
        with pytest.raises(ValueError):
            render_spec(result, flight_db, "png")

    def test_render_spec_none_for_failed_parse(self, flight_db):
        failed = TranslateResult(
            question="q", db_name="flights", tokens=["nonsense"],
            error="boom",
        )
        assert render_spec(failed, flight_db, "vega-lite") is None


class TestRegistry:
    def test_first_registration_becomes_default(self, stack):
        model, dataset, _ = stack
        reg = ModelRegistry()
        assert reg.default_model is None
        reg.register(
            "m", NeuralTranslator(model, dataset.in_vocab, dataset.out_vocab)
        )
        assert reg.default_model == "m"
        assert "m" in reg and len(reg) == 1

    def test_hot_swap_replaces_instance(self, stack):
        model, dataset, _ = stack
        reg = ModelRegistry()
        first = NeuralTranslator(model, dataset.in_vocab, dataset.out_vocab)
        second = NeuralTranslator(model, dataset.in_vocab, dataset.out_vocab)
        reg.register("m", first)
        reg.register("m", second)
        assert reg.get("m") is second
        assert len(reg) == 1

    def test_unknown_model_raises(self):
        reg = ModelRegistry()
        with pytest.raises(UnknownModelError):
            reg.get("missing")
        with pytest.raises(UnknownModelError):
            reg.set_default("missing")
        with pytest.raises(UnknownModelError):
            BaselineTranslator.from_name("not-a-baseline")

    def test_unregister_moves_default(self, stack):
        model, dataset, _ = stack
        reg = ModelRegistry()
        reg.register(
            "a", NeuralTranslator(model, dataset.in_vocab, dataset.out_vocab)
        )
        reg.register_baselines()
        reg.set_default("a")
        reg.unregister("a")
        assert reg.default_model in reg.names()
        assert "a" not in reg

    def test_warm_touches_every_model(self, registry, stack):
        _, _, databases = stack
        timings = registry.warm(databases)
        assert set(timings) == set(registry.names())
        assert all(seconds >= 0 for seconds in timings.values())

    def test_baseline_translator_reports_no_prediction(self, flight_db):
        baseline = BaselineTranslator("nl4dv", lambda nl, db: None)
        result = baseline.translate_requests([("??", flight_db)])[0]
        assert not result.ok
        assert "no visualization" in result.error

    def test_info_shapes(self, registry):
        info = registry.info()
        assert info["attn"]["kind"] == "neural"
        assert info["deepeye"]["kind"] == "baseline"


class TestResponseCache:
    def test_key_normalizes_question(self):
        a = ResponseCache.key_of("m", "db", "Show  Prices", "text")
        b = ResponseCache.key_of("m", "db", "show prices", "text")
        c = ResponseCache.key_of("m", "db", "show prices", "vega-lite")
        assert a == b
        assert a != c

    def test_lru_eviction(self):
        cache = ResponseCache(maxsize=2)
        k1, k2, k3 = (("m", "d", str(i), "text") for i in range(3))
        cache.put(k1, {"n": 1})
        cache.put(k2, {"n": 2})
        assert cache.get(k1) == {"n": 1}  # refresh k1
        cache.put(k3, {"n": 3})           # evicts k2
        assert cache.get(k2) is None
        assert cache.get(k1) == {"n": 1}
        assert cache.get(k3) == {"n": 3}
        stats = cache.stats()
        assert stats["size"] == 2
        assert stats["hits"] == 3 and stats["misses"] == 1

    def test_disabled_cache_never_stores(self):
        cache = ResponseCache(maxsize=0)
        key = ResponseCache.key_of("m", "d", "q", "text")
        cache.put(key, {"n": 1})
        assert cache.get(key) is None
        assert len(cache) == 0


class TestHistogram:
    def test_buckets_and_percentiles(self):
        hist = Histogram((1.0, 10.0))
        for value in (0.5, 5.0, 5.0, 50.0):
            hist.observe(value)
        assert hist.buckets() == {"le_1": 1, "le_10": 2, "le_inf": 1}
        assert hist.count == 4
        assert hist.min == 0.5 and hist.max == 50.0
        assert hist.percentile(0) == 0.5
        assert hist.percentile(100) == 50.0
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["p50"] in (5.0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram((10.0, 1.0))
        with pytest.raises(ValueError):
            Histogram((1.0,)).percentile(150)

    def test_empty(self):
        hist = Histogram((1.0,))
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0


class _Recorder:
    """Batch handler that records group sizes."""

    def __init__(self, delay: float = 0.0):
        self.sizes = []
        self.delay = delay

    def __call__(self, key, items):
        if self.delay:
            time.sleep(self.delay)
        self.sizes.append(len(items))
        return [f"{key}:{item}" for item in items]


class TestMicroBatcher:
    def test_coalesces_concurrent_submits(self):
        async def scenario():
            recorder = _Recorder()
            batcher = MicroBatcher(
                recorder, max_batch_size=8, flush_interval=0.05
            )
            await batcher.start()
            results = await asyncio.gather(
                *(batcher.submit("m", i) for i in range(6))
            )
            await batcher.drain()
            return recorder, results

        recorder, results = asyncio.run(scenario())
        assert results == [f"m:{i}" for i in range(6)]
        assert max(recorder.sizes) > 1, "no coalescing happened"

    def test_groups_by_key(self):
        async def scenario():
            recorder = _Recorder()
            batcher = MicroBatcher(
                recorder, max_batch_size=8, flush_interval=0.05
            )
            await batcher.start()
            results = await asyncio.gather(
                batcher.submit("a", 1),
                batcher.submit("b", 2),
                batcher.submit("a", 3),
            )
            await batcher.drain()
            return results

        assert asyncio.run(scenario()) == ["a:1", "b:2", "a:3"]

    def test_queue_full_rejects(self):
        async def scenario():
            batcher = MicroBatcher(
                _Recorder(), max_batch_size=1, max_queue_depth=2
            )
            # Flusher never started: the queue can only fill up.
            waiting = [
                asyncio.ensure_future(batcher.submit("m", i)) for i in range(2)
            ]
            await asyncio.sleep(0)
            with pytest.raises(QueueFullError):
                await batcher.submit("m", 99)
            for task in waiting:
                task.cancel()
            return True

        assert asyncio.run(scenario())

    def test_drain_finishes_accepted_work_then_rejects(self):
        async def scenario():
            recorder = _Recorder()
            batcher = MicroBatcher(
                recorder, max_batch_size=4, flush_interval=0.01
            )
            await batcher.start()
            pending = asyncio.ensure_future(batcher.submit("m", "x"))
            await asyncio.sleep(0)
            await batcher.drain()
            assert pending.result() == "m:x"
            with pytest.raises(ServerDrainingError):
                await batcher.submit("m", "y")
            return True

        assert asyncio.run(scenario())

    def test_handler_exception_propagates(self):
        async def scenario():
            def broken(key, items):
                raise UnknownModelError("nope")

            batcher = MicroBatcher(broken, flush_interval=0.01)
            await batcher.start()
            with pytest.raises(UnknownModelError):
                await batcher.submit("m", 1)
            await batcher.drain()
            return True

        assert asyncio.run(scenario())

    def test_per_request_timeout(self):
        async def scenario():
            batcher = MicroBatcher(
                _Recorder(delay=0.5), flush_interval=0.001
            )
            await batcher.start()
            with pytest.raises(asyncio.TimeoutError):
                await batcher.submit("m", 1, timeout=0.05)
            await batcher.drain()
            return True

        assert asyncio.run(scenario())

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            MicroBatcher(_Recorder(), max_batch_size=0)

    def test_lone_request_dispatches_at_once(self):
        async def scenario():
            batcher = MicroBatcher(_Recorder(), flush_interval=1.0)
            await batcher.start()
            started = time.perf_counter()
            result = await batcher.submit("m", 1)
            elapsed = time.perf_counter() - started
            await batcher.drain()
            return result, elapsed

        result, elapsed = asyncio.run(scenario())
        assert result == "m:1"
        assert elapsed < 0.5, f"a lone request waited {elapsed:.3f}s"

    def test_waits_for_stragglers_after_a_batch_with_company(self):
        async def scenario():
            entered, release = threading.Event(), threading.Event()
            sizes = []

            def handler(key, items):
                if not sizes:
                    entered.set()
                    release.wait(timeout=10)
                sizes.append(len(items))
                return list(items)

            batcher = MicroBatcher(handler, flush_interval=0.25)
            await batcher.start()
            first = asyncio.ensure_future(batcher.submit("m", 0))
            assert await asyncio.to_thread(entered.wait, 10)
            queued = [
                asyncio.ensure_future(batcher.submit("m", i)) for i in (1, 2)
            ]
            await asyncio.sleep(0)
            release.set()
            await asyncio.gather(first, *queued)
            assert sizes == [1, 2]
            # The batch of two had company, so the next batch holds its
            # window open for a straggler 50 ms behind.
            early = asyncio.ensure_future(batcher.submit("m", 3))
            await asyncio.sleep(0.05)
            await asyncio.gather(early, batcher.submit("m", 4))
            await batcher.drain()
            return sizes

        assert asyncio.run(scenario()) == [1, 2, 2]

    def test_lone_batch_ends_the_wait(self):
        async def scenario():
            recorder = _Recorder()
            batcher = MicroBatcher(recorder, flush_interval=0.5)
            await batcher.start()
            await asyncio.gather(batcher.submit("m", 0), batcher.submit("m", 1))
            timings = []
            for item in (2, 3):
                started = time.perf_counter()
                await batcher.submit("m", item)
                timings.append(time.perf_counter() - started)
            await batcher.drain()
            return recorder.sizes, timings

        sizes, (after_company, after_lone) = asyncio.run(scenario())
        assert sizes == [2, 1, 1]
        assert after_company >= 0.45, "the window after company was skipped"
        assert after_lone < 0.25, f"a lone request waited {after_lone:.3f}s"

    @staticmethod
    def _closed_loop(clients: int, rounds: int):
        """*clients* closed-loop clients against a 20 ms handler and a
        50 ms window; client *c* resubmits 0.5·(c+1) ms after its answer.

        Returns the batch sizes and the seconds all rounds took.
        """
        async def scenario():
            recorder = _Recorder(delay=0.02)
            batcher = MicroBatcher(
                recorder, max_batch_size=8, flush_interval=0.05
            )
            await batcher.start()

            async def client(index):
                for _ in range(rounds):
                    await batcher.submit("m", index)
                    await asyncio.sleep(0.0005 * (index + 1))

            started = time.perf_counter()
            await asyncio.gather(*(client(c) for c in range(clients)))
            elapsed = time.perf_counter() - started
            await batcher.drain()
            return recorder.sizes, elapsed

        return asyncio.run(scenario())

    def test_closed_loop_clients_keep_batches_full(self):
        sizes, _ = self._closed_loop(clients=8, rounds=5)
        assert sum(sizes) == 40
        assert all(size == 8 for size in sizes[1:]), sizes

    def test_closed_loop_lone_client_never_waits(self):
        _, elapsed = self._closed_loop(clients=1, rounds=5)
        assert elapsed < 5 * 0.05, f"5 rounds took {elapsed:.3f}s"


class TestServerEndToEnd:
    def test_healthz_shape(self, running):
        server, client = running
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["default_model"] == "attn"
        assert set(health["models"]) >= {"attn", "deepeye", "nl4dv"}
        assert health["databases"] == len(server.databases)
        assert health["queue_depth"] >= 0
        assert health["uptime_seconds"] > 0

    def test_metrics_shape(self, running, stack):
        _, _, databases = stack
        _, client = running
        client.translate(QUESTIONS[0], sorted(databases)[0], use_cache=False)
        metrics = client.metrics()
        for key in (
            "uptime_seconds", "counters", "latency_ms", "batch_size",
            "response_cache", "execution_cache", "queue", "avg_batch_size",
        ):
            assert key in metrics, key
        assert metrics["latency_ms"]["count"] > 0
        assert "le_inf" in metrics["latency_ms"]["buckets"]
        assert metrics["counters"]["requests_total"] > 0
        assert metrics["queue"]["capacity"] == 128

    def test_batched_server_matches_serial_reference(self, running, stack):
        model, dataset, databases = stack
        server, client = running
        names = sorted(databases)
        requests = [
            {
                "question": f"{question} ({index})",
                "db": names[index % len(names)],
                "use_cache": False,
            }
            for index, question in enumerate(QUESTIONS * 2)
        ]
        expected = [
            translate_question(
                model,
                dataset.in_vocab,
                dataset.out_vocab,
                request["question"],
                databases[request["db"]],
            )
            for request in requests
        ]
        generator = LoadGenerator(client, concurrency=6)
        report, responses = generator.run(requests)
        assert report.errors == 0, report.by_status
        for request, response, reference in zip(requests, responses, expected):
            assert response is not None
            assert response["tokens"] == reference.tokens, request
            assert response["vis"] == reference.vis_text
            assert response["cached"] is False
        metrics = client.metrics()
        assert metrics["batch_size"]["count"] > 0
        assert metrics["counters"]["batched_requests"] >= len(requests)

    def test_response_cache_round_trip(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        first = client.translate("how many rows per category today?", db)
        again = client.translate("How many  rows per category today?", db)
        assert first["cached"] is False
        assert again["cached"] is True
        assert again["tokens"] == first["tokens"]

    def test_baseline_model_with_rendering(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        response = client.translate(
            "show everything", db, model="deepeye", fmt="vega-lite"
        )
        if response["error"] is None:
            assert response["spec"]["$schema"].startswith("https://vega")
        assert response["model"] == "deepeye"
        assert response["format"] == "vega-lite"

    def test_http_errors(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        with pytest.raises(ServeError) as err:
            client.translate("q?", "no-such-db")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client.translate("q?", db, model="no-such-model")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client.translate("q?", db, fmt="png")
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.translate("   ", db)
        assert err.value.status == 400
        assert client.request("GET", "/translate")[0] == 405
        assert client.request("POST", "/healthz")[0] == 405
        assert client.request("GET", "/nope")[0] == 404
        status, body = client.request("POST", "/translate", None)
        assert status == 400 and "JSON" in body["error"]

    def test_malformed_framing_gets_its_status(
        self, running, malformed_exchange
    ):
        _, client = running
        before = client.metrics()["counters"].get("rejected_framing", 0)
        reply, status = malformed_exchange(client.host, client.port)
        head = reply.split(b"\r\n\r\n", 1)[0]
        assert head.startswith(b"HTTP/1.1 %d " % status), reply
        assert b"Connection: close" in head
        assert client.healthz()["status"] == "ok"
        assert client.metrics()["counters"]["rejected_framing"] == before + 1

    def test_queue_overflow_returns_429(self, stack):
        _, _, databases = stack

        class Slow(Translator):
            kind = "slow"

            def translate_requests(self, requests, decode=None,
                                   encoder_cache=None, model_name=""):
                time.sleep(0.3)
                return [
                    TranslateResult(question=q, db_name=d.name, error="slow")
                    for q, d in requests
                ]

        registry = ModelRegistry()
        registry.register("slow", Slow())
        server = InferenceServer(
            registry,
            databases,
            ServerConfig(
                port=0, max_batch_size=1, max_queue_depth=1,
                flush_interval=0.001, cache_size=0,
            ),
        )
        db = sorted(databases)[0]
        with BackgroundServer(server) as background:
            client = background.client()
            generator = LoadGenerator(client, concurrency=6)
            report, _ = generator.run(
                [
                    {"question": f"q {i}", "db": db, "use_cache": False}
                    for i in range(6)
                ]
            )
        assert report.by_status.get(429, 0) >= 1, report.by_status
        assert report.by_status.get(200, 0) >= 1, report.by_status

    def test_graceful_drain_completes_inflight(self, registry, stack):
        _, _, databases = stack
        server = InferenceServer(
            registry, databases, ServerConfig(port=0, cache_size=0)
        )
        background = BackgroundServer(server)
        background.start()
        client = background.client()
        db = sorted(databases)[0]
        assert client.translate("count rows per type", db)["question"]
        background.stop()
        assert server.batcher.draining
        with pytest.raises(Exception):
            client.healthz()

class TestDecodeConfig:
    def test_defaults_are_greedy(self):
        config = DecodeConfig()
        assert config.is_greedy
        assert config.cache_tag() == "greedy"

    def test_beam_tags_are_distinct(self):
        assert DecodeConfig(beam_width=4).cache_tag() != "greedy"
        assert (
            DecodeConfig(beam_width=4).cache_tag()
            != DecodeConfig(beam_width=2).cache_tag()
        )
        assert (
            DecodeConfig(beam_width=4, num_candidates=3).cache_tag()
            != DecodeConfig(beam_width=4).cache_tag()
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam_width=0)
        with pytest.raises(ValueError):
            DecodeConfig(beam_width=2, num_candidates=3)
        with pytest.raises(ValueError):
            DecodeConfig(num_candidates=0)

    def test_response_cache_key_separates_decode_and_precision(self):
        greedy = ResponseCache.key_of("m", "db", "q?", "text")
        beam = ResponseCache.key_of(
            "m", "db", "q?", "text", decode=DecodeConfig(beam_width=4).cache_tag()
        )
        int8 = ResponseCache.key_of("m", "db", "q?", "text", precision="int8")
        assert len({greedy, beam, int8}) == 3


class TestEncoderCache:
    def test_hits_after_first_encode(self, stack):
        model, dataset, databases = stack
        names = sorted(databases)
        cache = EncoderCache()
        requests = [
            (question, databases[names[i % len(names)]])
            for i, question in enumerate(QUESTIONS[:4])
        ]
        plain = translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, requests
        )
        first = translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, requests,
            encoder_cache=cache, model_name="attn",
        )
        assert cache.stats()["misses"] == len(requests)
        assert cache.stats()["hits"] == 0
        second = translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, requests,
            encoder_cache=cache, model_name="attn",
        )
        assert cache.stats()["hits"] == len(requests)
        for a, b, c in zip(plain, first, second):
            assert a.tokens == b.tokens == c.tokens

    def test_mixed_hit_miss_batch_is_exact(self, stack):
        model, dataset, databases = stack
        names = sorted(databases)
        cache = EncoderCache()
        db = databases[names[0]]
        warm = [(QUESTIONS[0], db)]
        translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, warm,
            encoder_cache=cache, model_name="attn",
        )
        mixed = [(QUESTIONS[0], db), (QUESTIONS[1], db), (QUESTIONS[2], db)]
        cached = translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, mixed,
            encoder_cache=cache, model_name="attn",
        )
        plain = translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, mixed
        )
        assert [r.tokens for r in cached] == [r.tokens for r in plain]
        assert cache.stats()["hits"] >= 1

    def test_beam_decode_reuses_greedy_encodings(self, stack):
        model, dataset, databases = stack
        db = databases[sorted(databases)[0]]
        cache = EncoderCache()
        requests = [(QUESTIONS[0], db)]
        translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, requests,
            encoder_cache=cache, model_name="attn",
        )
        beamed = translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, requests,
            decode=DecodeConfig(beam_width=3), encoder_cache=cache,
            model_name="attn",
        )
        assert cache.stats()["hits"] == 1
        reference = translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, requests,
            decode=DecodeConfig(beam_width=3),
        )
        assert [r.tokens for r in beamed] == [r.tokens for r in reference]

    def test_lru_eviction_and_invalidate(self):
        import numpy as np

        cache = EncoderCache(maxsize=2)
        entry = EncoderCache.entry_of(
            np.ones((3, 4)), np.ones(2), np.ones(2), np.ones(3)
        )
        cache.put(EncoderCache.key_of("m1", "db", ["a"]), entry)
        cache.put(EncoderCache.key_of("m2", "db", ["b"]), entry)
        cache.put(EncoderCache.key_of("m2", "db", ["c"]), entry)
        assert len(cache) == 2
        assert cache.get(EncoderCache.key_of("m1", "db", ["a"])) is None
        assert cache.invalidate_model("m2") == 2
        assert len(cache) == 0
        assert cache.stats()["resident_bytes"] == 0

    def test_disabled_cache_never_stores(self):
        import numpy as np

        cache = EncoderCache(maxsize=0)
        entry = EncoderCache.entry_of(
            np.ones((3, 4)), np.ones(2), np.ones(2), np.ones(3)
        )
        key = EncoderCache.key_of("m", "db", ["a"])
        cache.put(key, entry)
        assert len(cache) == 0
        assert cache.get(key) is None


class TestBeamServing:
    def test_beam_request_fields(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        response = client.translate(
            "beam me the counts per type", db, beam_width=3, candidates=2,
            use_cache=False,
        )
        assert response["beam_width"] == 3
        assert response["precision"] in ("float32", "float64")
        assert isinstance(response.get("candidates"), list)
        assert 1 <= len(response["candidates"]) <= 2
        top = response["candidates"][0]
        assert set(top) >= {"tokens", "score"}
        assert top["tokens"] == response["tokens"]

    def test_greedy_response_has_no_candidates(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        response = client.translate(
            "just the greedy counts", db, use_cache=False
        )
        assert response["beam_width"] == 1
        assert "candidates" not in response

    def test_beam_and_greedy_cache_separately(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        question = "distinct cache entries per decode config?"
        greedy = client.translate(question, db)
        beamed = client.translate(question, db, beam_width=4)
        assert greedy["cached"] is False
        assert beamed["cached"] is False  # beam never reads greedy's entry
        assert client.translate(question, db, beam_width=4)["cached"] is True

    def test_bad_beam_params_rejected(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        with pytest.raises(ServeError) as err:
            client.translate("q?", db, beam_width=0)
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.translate("q?", db, beam_width=999)
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.translate("q?", db, beam_width=2, candidates=3)
        assert err.value.status == 400

    def test_encoder_cache_in_metrics(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        client.translate("metrics see the encoder cache", db, use_cache=False)
        metrics = client.metrics()
        assert "encoder_cache" in metrics
        assert metrics["encoder_cache"]["maxsize"] == 256

    def test_hot_swap_invalidates_both_caches(self, stack):
        model, dataset, databases = stack
        registry = ModelRegistry()
        registry.register(
            "attn", NeuralTranslator(model, dataset.in_vocab, dataset.out_vocab)
        )
        server = InferenceServer(registry, databases, ServerConfig(port=0))
        db = databases[sorted(databases)[0]]
        # Prime both caches through the real batch path.
        results = server._run_group(
            "attn\x00greedy", [("how many rows?", db, DecodeConfig())]
        )
        key = ResponseCache.key_of("attn", db.name, "how many rows?", "text")
        server.response_cache.put(key, {"tokens": results[0].tokens})
        assert len(server.encoder_cache) == 1
        assert len(server.response_cache) == 1
        registry.register(
            "attn", NeuralTranslator(model, dataset.in_vocab, dataset.out_vocab)
        )
        assert len(server.encoder_cache) == 0
        assert len(server.response_cache) == 0

    def test_unregister_also_invalidates(self, stack):
        model, dataset, databases = stack
        registry = ModelRegistry()
        registry.register(
            "attn", NeuralTranslator(model, dataset.in_vocab, dataset.out_vocab)
        )
        server = InferenceServer(registry, databases, ServerConfig(port=0))
        db = databases[sorted(databases)[0]]
        server._run_group(
            "attn\x00greedy", [("count the rows", db, DecodeConfig())]
        )
        assert len(server.encoder_cache) == 1
        registry.unregister("attn")
        assert len(server.encoder_cache) == 0


class TestPipelineEndpoint:
    def test_pinned_database(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        response = client.pipeline(
            "how many rows per category?", db=db, model="deepeye", k=3
        )
        assert response["db"] == db
        assert response["routed"] is False
        assert response["model"] == "deepeye"
        assert response["candidates"]
        assert response["charts"], "baseline should yield a valid chart"
        assert set(response["stage_timings_ms"]) == {
            "route", "generate", "verify", "execute", "repair"
        }
        assert response["timed_out"] is None
        top = response["candidates"][0]
        assert set(top) >= {"tokens", "score", "status", "violations", "execution"}

    def test_routes_when_db_omitted(self, running):
        _, client = running
        response = client.pipeline(
            "how many rows per category?", model="deepeye"
        )
        assert response["routed"] is True
        assert response["routes"], "route evidence is returned"
        assert response["db"] == response["routes"][0]["db"]

    def test_budget_fields_round_trip(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        response = client.pipeline(
            "counts per type", db=db, model="deepeye",
            k=2, budget_ms=30000, max_rows=5, repair=False,
        )
        budget = response["budget"]
        assert budget["k"] == 2
        assert budget["total_ms"] == 30000
        assert budget["max_rows"] == 5
        assert budget["repair"] is False
        assert response["counters"]["repairs_attempted"] == 0

    def test_error_statuses(self, running):
        _, client = running
        with pytest.raises(ServeError) as err:
            client.pipeline("q?", db="no_such_db")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client.pipeline("q?", model="no_such_model")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client.pipeline("")
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.pipeline("q?", k=0)
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.pipeline("q?", budget_ms=-5)
        assert err.value.status == 400

    def test_pipeline_counters_in_metrics(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        client.pipeline("metrics see the pipeline", db=db, model="deepeye")
        counters = client.metrics()["counters"]
        assert counters.get("pipeline_requests", 0) >= 1
        assert counters.get("pipeline_executions", 0) >= 1
        assert counters.get("pipeline_verify_pass", 0) >= 1
        assert counters.get("pipeline_born_legal_total", 0) >= 1

    def test_judge_block_on_request(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        response = client.pipeline(
            "how many rows per category?", db=db, model="deepeye", judge=True
        )
        assert response["charts"], "need a valid chart to judge"
        verdicts = response["judge"]
        assert len(verdicts) == len(response["charts"])
        for entry in verdicts:
            assert set(entry) >= {"vis", "repaired", "dimensions"}
            # serve-time judging is gold-free: no tree dimension
            assert set(entry["dimensions"]) == {
                "validity", "legality", "readability"
            }
            for verdict in entry["dimensions"].values():
                assert set(verdict) == {"ok", "reason"}
        counters = client.metrics()["counters"]
        assert counters.get("pipeline_judged", 0) >= 1

    def test_judge_defaults_off(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        response = client.pipeline("count rows", db=db, model="deepeye")
        assert "judge" not in response

    def test_judge_must_be_boolean(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        with pytest.raises(ServeError) as err:
            client._checked(
                "POST", "/pipeline",
                {"question": "q?", "db": db, "model": "deepeye",
                 "judge": "yes"},
            )
        assert err.value.status == 400
