"""Tests for the ``repro.obs`` observability layer.

Covers the span/tracer core (ambient + explicit parenting, error
status, post-hoc records, cross-process absorption), the JSONL
exporter round trip, the ``trace summarize`` rendering, and the three
instrumented hot paths: the (parallel) benchmark build, the training
loop, and the inference server — including the acceptance guarantees
that tracing never changes outputs and that one trace id follows a
request from HTTP ingress through micro-batch coalescing into the
batched decode.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.core.nvbench import NVBenchConfig, build_nvbench, save_nvbench_pairs
from repro.obs import (
    NOOP_SPAN,
    InMemoryExporter,
    JsonlExporter,
    SpanAggregator,
    SpanContext,
    Tracer,
    load_spans,
    make_exporter,
    render_tree,
    span_tree,
    stage_table,
    summarize,
    traced,
)
from repro.spider.corpus import CorpusConfig, build_spider_corpus


@pytest.fixture(scope="module")
def tiny_corpus():
    return build_spider_corpus(
        CorpusConfig(num_databases=3, pairs_per_database=4, row_scale=0.3, seed=3)
    )


def _config() -> NVBenchConfig:
    return NVBenchConfig(filter_training_pairs=12, seed=3)


def _by_name(records, name):
    return [r for r in records if r["name"] == name]


class TestSpanCore:
    def test_span_records_duration_and_attributes(self):
        tracer = Tracer()
        with tracer.span("work", answer=42) as span:
            span.set_attribute("extra", "yes")
            span.add_event("milestone", step=1)
        (record,) = tracer.finished()
        assert record["name"] == "work"
        assert record["status"] == "ok"
        assert record["duration_ms"] >= 0.0
        assert record["attributes"] == {"answer": 42, "extra": "yes"}
        assert record["events"][0]["name"] == "milestone"
        assert record["events"][0]["offset_ms"] >= 0.0

    def test_ambient_nesting(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.finished()  # inner ends first
        assert inner["name"] == "inner"
        assert inner["trace_id"] == outer["trace_id"]
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None

    def test_explicit_parent_crosses_serialization(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        payload = root.context.to_dict()
        root.end()
        assert SpanContext.from_dict(payload) == root.context
        with tracer.span("child", parent=payload):
            pass
        child = tracer.finished()[-1]
        assert child["trace_id"] == root.trace_id
        assert child["parent_id"] == root.span_id

    def test_empty_span_id_roots_in_existing_trace(self):
        # An inbound bare trace id (x-trace-id header) adopts the trace
        # without inventing a parent span.
        tracer = Tracer()
        context = SpanContext(trace_id="beefbeefbeefbeef", span_id="")
        with tracer.span("request", parent=context):
            pass
        (record,) = tracer.finished()
        assert record["trace_id"] == "beefbeefbeefbeef"
        assert record["parent_id"] is None

    def test_exception_marks_error_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (record,) = tracer.finished()
        assert record["status"] == "error"
        assert record["error"] == "ValueError: nope"

    def test_record_post_hoc(self):
        tracer = Tracer()
        parent = SpanContext(trace_id="cafecafecafecafe", span_id="1234")
        tracer.record(
            "decode", parent=parent, start_unix=100.0, duration_s=0.25,
            batch_size=4,
        )
        (record,) = tracer.finished()
        assert record["trace_id"] == "cafecafecafecafe"
        assert record["parent_id"] == "1234"
        assert record["start_unix"] == 100.0
        assert record["duration_ms"] == 250.0
        assert record["attributes"]["batch_size"] == 4

    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(enabled=False)
        span = tracer.start_span("ignored")
        assert span is NOOP_SPAN
        assert span.set_attribute("k", "v") is span
        assert span.context is None
        with traced(tracer, "also-ignored") as inner:
            assert inner is NOOP_SPAN
        assert tracer.finished() == []
        assert tracer.current_context() is None
        assert tracer.stats() == {
            "enabled": False, "spans_started": 0, "spans_finished": 0,
        }

    def test_traced_tolerates_none(self):
        with traced(None, "nothing", key="value") as span:
            assert span is NOOP_SPAN

    def test_absorb_merges_in_order(self):
        worker = Tracer()
        with worker.span("shard"):
            pass
        coordinator = Tracer()
        assert coordinator.absorb(worker.finished()) == 1
        assert [r["name"] for r in coordinator.finished()] == ["shard"]
        assert coordinator.stats()["spans_finished"] == 1

    def test_stats_counts_started_and_finished(self):
        tracer = Tracer()
        open_span = tracer.start_span("open")
        with tracer.span("closed"):
            pass
        stats = tracer.stats()
        assert stats["spans_started"] == 2
        assert stats["spans_finished"] == 1
        open_span.end()
        assert tracer.stats()["spans_finished"] == 2

    def test_span_ids_stay_distinct_across_forked_children(self):
        import multiprocessing
        import re

        from repro.obs.trace import _new_id

        fork = multiprocessing.get_context("fork")
        pipes, children = [], []
        for _ in range(2):
            receiver, sender = fork.Pipe(duplex=False)
            child = fork.Process(target=_mint_ids, args=(sender, 5000))
            child.start()
            sender.close()
            pipes.append(receiver)
            children.append(child)
        ids = [_new_id() for _ in range(5000)]
        for receiver, child in zip(pipes, children):
            ids.extend(receiver.recv())
            child.join(10)
            assert child.exitcode == 0
        assert len(ids) == 15000
        assert len(set(ids)) == len(ids)
        assert all(re.fullmatch("[0-9a-f]{16}", span_id) for span_id in ids)


def _mint_ids(sender, count: int) -> None:
    from repro.obs.trace import _new_id

    sender.send([_new_id() for _ in range(count)])
    sender.close()


class TestExporters:
    def test_in_memory_exporter_receives_finished_spans(self):
        exporter = InMemoryExporter()
        tracer = Tracer(exporter=exporter)
        with tracer.span("work"):
            pass
        assert [r["name"] for r in exporter.records()] == ["work"]
        assert tracer.finished() == []  # not buffered when exporting

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "sub" / "trace.jsonl"
        exporter = JsonlExporter(str(path))
        tracer = Tracer(exporter=exporter)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        exporter.close()
        assert exporter.exported == 2
        records = load_spans(str(path))
        assert [r["name"] for r in records] == ["inner", "outer"]
        for record in records:
            assert set(record) == {
                "trace_id", "span_id", "parent_id", "name", "start_unix",
                "duration_ms", "status", "error", "attributes", "events",
            }

    def test_jsonl_close_is_idempotent_and_final(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        exporter = JsonlExporter(str(path))
        exporter.export({"name": "kept"})
        exporter.close()
        exporter.close()
        exporter.export({"name": "dropped"})
        assert exporter.exported == 1
        assert len(load_spans(str(path))) == 1

    def test_load_spans_reports_bad_line_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"name": "ok"}\n\nnot json\n')
        with pytest.raises(ValueError, match=r"trace\.jsonl:3"):
            load_spans(str(path))

    def test_make_exporter(self, tmp_path):
        assert make_exporter(None) is None
        assert make_exporter("") is None
        exporter = make_exporter(str(tmp_path / "t.jsonl"))
        assert isinstance(exporter, JsonlExporter)
        exporter.close()


def _fake_record(name, trace="t1", span_id="s", parent=None, ms=1.0,
                 status="ok", start=0.0):
    return {
        "trace_id": trace, "span_id": span_id, "parent_id": parent,
        "name": name, "start_unix": start, "duration_ms": ms,
        "status": status, "error": "X: y" if status == "error" else None,
        "attributes": {}, "events": [],
    }


class TestSummarize:
    def _records(self):
        return [
            _fake_record("build", span_id="root", ms=100.0),
            _fake_record("pair", span_id="p1", parent="root", ms=10.0, start=1),
            _fake_record("pair", span_id="p2", parent="root", ms=20.0, start=2),
            _fake_record("pair", span_id="p3", parent="root", ms=30.0, start=3,
                         status="error"),
            _fake_record("featurize", span_id="f1", parent="p1", ms=5.0),
        ]

    def test_span_tree_resolves_parents_and_orphans(self):
        records = self._records() + [
            _fake_record("orphan", span_id="o1", parent="missing", ms=1.0)
        ]
        roots = span_tree(records)
        assert set(roots) == {"t1"}
        names = sorted(node.name for node in roots["t1"])
        assert names == ["build", "orphan"]
        build = next(n for n in roots["t1"] if n.name == "build")
        assert [child.name for child in build.children] == ["pair"] * 3

    def test_render_tree_collapses_siblings_and_marks_errors(self):
        roots = span_tree(self._records())["t1"]
        text = render_tree(roots)
        assert "build" in text
        assert "pair ×3" in text
        assert "[1 error]" in text
        assert "featurize" in text

    def test_render_tree_min_ms_and_max_depth(self):
        roots = span_tree(self._records())["t1"]
        assert "featurize" not in render_tree(roots, max_depth=2)
        text = render_tree(roots, min_ms=25.0)
        assert "build" in text
        assert "pair ×3" in text
        assert "featurize" not in text
        # an errored group survives the min_ms filter at its own level
        err_roots = span_tree(
            [_fake_record("bad", ms=0.1, status="error")]
        )["t1"]
        assert "bad" in render_tree(err_roots, min_ms=1000.0)

    def test_stage_table_sorted_by_total(self):
        rows = stage_table(self._records())
        assert [row["name"] for row in rows] == ["build", "pair", "featurize"]
        pair = rows[1]
        assert pair["calls"] == 3
        assert pair["total_ms"] == 60.0
        assert pair["mean_ms"] == 20.0
        assert pair["max_ms"] == 30.0
        assert pair["errors"] == 1

    def test_summarize_document(self):
        text = summarize(self._records())
        assert "trace t1 (5 spans)" in text
        assert "stage breakdown (5 spans, 1 trace(s))" in text

    def test_summarize_trace_id_filter(self):
        text = summarize(self._records(), trace_id="nope")
        assert "not in export" in text
        assert summarize([]) == "(no spans in export)"

    def test_summarize_caps_trace_count(self):
        records = [
            _fake_record("r", trace=f"t{i}", span_id=f"s{i}", ms=i)
            for i in range(8)
        ]
        text = summarize(records, max_traces=2)
        assert "6 more trace(s) omitted" in text


def _deep_size(root) -> int:
    """Bytes reachable from *root*, each object counted once."""
    import sys
    from collections import deque

    seen, total, stack = set(), 0, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, deque)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.append(vars(obj))
        elif hasattr(type(obj), "__slots__"):
            stack.extend(getattr(obj, slot) for slot in type(obj).__slots__
                         if hasattr(obj, slot))
    return total


def _pair_span(index: int, name: str = "pair", status: str = "ok") -> dict:
    return {
        "name": name, "duration_ms": 0.25 + index % 7, "status": status,
        "attributes": {"index": index, "pairs_out": 2, "db": f"db{index}",
                       "mode": True},
        "events": [],
    }


class TestSpanAggregator:
    def test_folds_calls_seconds_errors_and_numeric_attributes(self):
        spans = SpanAggregator()
        spans.export(_pair_span(0))
        spans.export(_pair_span(1, status="error"))
        spans.export(_pair_span(2, name="select"))
        pair = spans.get("pair")
        assert pair.calls == 2
        assert pair.seconds == pytest.approx((0.25 + 1.25) / 1000.0)
        assert pair.errors == 1
        # strings and booleans are not summed
        assert pair.sums == {"index": 1, "pairs_out": 4}
        assert spans.get("absent").calls == 0
        assert spans.counters(["pairs_out", "absent"]) == {"pairs_out": 6}

    def test_state_is_bounded_by_distinct_span_names(self):
        spans = SpanAggregator()
        names = ("pair", "featurize", "score")

        def feed(start: int, count: int) -> None:
            for index in range(start, start + count):
                spans.export(_pair_span(index, name=names[index % 3]))

        feed(0, 30_000)
        size = _deep_size(spans)
        feed(30_000, 30_000)
        assert set(spans.stages()) == set(names)
        assert [spans.get(name).calls for name in names] == [20_000] * 3
        for name in names:
            assert set(spans.get(name).sums) == {"index", "pairs_out"}
        # 30,000 more spans grow only the magnitude of the running sums
        assert _deep_size(spans) - size < 256

    def test_kept_names_retain_records_in_finish_order(self):
        spans = SpanAggregator(keep=("epoch",))
        tracer = Tracer(exporter=spans)
        for epoch in range(3):
            with tracer.span("epoch", epoch=epoch):
                with tracer.span("step"):
                    pass
        assert [r["attributes"]["epoch"] for r in spans.kept("epoch")] == [0, 1, 2]
        with pytest.raises(KeyError):
            spans.kept("step")

    def test_forwards_every_record_downstream(self, tmp_path):
        exporter = JsonlExporter(str(tmp_path / "spans.jsonl"))
        spans = SpanAggregator(downstream=exporter)
        tracer = Tracer(exporter=spans)
        for _ in range(3):
            with tracer.span("work", items=2):
                pass
        spans.close()
        records = load_spans(str(tmp_path / "spans.jsonl"))
        assert [r["name"] for r in records] == ["work"] * 3
        assert spans.get("work").sums == {"items": 6}

    def test_stage_table_rows_come_from_the_aggregator(self):
        records = [_pair_span(i, name="ab"[i % 2]) for i in range(10)]
        spans = SpanAggregator()
        for record in records:
            spans.export(record)
        assert stage_table(records) == spans.rows()


class TestBuildTracing:
    def test_traced_parallel_build_is_byte_identical(self, tiny_corpus, tmp_path):
        plain = build_nvbench(corpus=tiny_corpus, config=_config(), workers=2)
        tracer = Tracer()
        traced_build = build_nvbench(
            corpus=tiny_corpus, config=_config(), workers=2, tracer=tracer
        )
        assert traced_build.pairs == plain.pairs
        save_nvbench_pairs(plain, str(tmp_path / "plain.json"))
        save_nvbench_pairs(traced_build, str(tmp_path / "traced.json"))
        assert (tmp_path / "plain.json").read_bytes() == \
            (tmp_path / "traced.json").read_bytes()

    def test_parallel_build_spans_share_one_trace(self, tiny_corpus):
        tracer = Tracer()
        build_nvbench(
            corpus=tiny_corpus, config=_config(), workers=2, tracer=tracer
        )
        records = tracer.finished()
        (root,) = _by_name(records, "build_nvbench")
        assert root["parent_id"] is None
        assert {r["trace_id"] for r in records} == {root["trace_id"]}
        # one shard span per database — the shard is the unit of work
        shards = _by_name(records, "shard")
        assert len(shards) == len(tiny_corpus.databases)
        assert {s["attributes"]["db"] for s in shards} == set(
            tiny_corpus.databases
        )
        (synth,) = _by_name(records, "synthesize")
        for shard in shards:
            assert shard["parent_id"] == synth["span_id"]
        pairs = _by_name(records, "pair")
        assert len(pairs) == len(tiny_corpus.pairs)
        shard_ids = {shard["span_id"] for shard in shards}
        assert {p["parent_id"] for p in pairs} <= shard_ids
        # synthesizer stages nest under the per-pair spans
        pair_ids = {p["span_id"] for p in pairs}
        featurized = _by_name(records, "featurize")
        assert featurized
        assert {f["parent_id"] for f in featurized} <= pair_ids
        assert root["attributes"]["pairs"] > 0
        assert root["attributes"]["execution_cache_hits"] >= 0

    def test_parallel_build_span_ids_are_unique(self, tiny_corpus):
        tracer = Tracer()
        build_nvbench(
            corpus=tiny_corpus, config=_config(), workers=2, tracer=tracer
        )
        span_ids = [record["span_id"] for record in tracer.finished()]
        assert len(_by_name(tracer.finished(), "shard")) == 3
        assert len(set(span_ids)) == len(span_ids)

    def test_parallel_traced_export_is_deterministic(self, tiny_corpus):
        def span_names():
            tracer = Tracer()
            build_nvbench(
                corpus=tiny_corpus, config=_config(), workers=2, tracer=tracer
            )
            return [r["name"] for r in tracer.finished()]

        assert span_names() == span_names()

    def test_serial_traced_build_matches_untraced(self, tiny_corpus):
        plain = build_nvbench(corpus=tiny_corpus, config=_config())
        tracer = Tracer()
        traced_build = build_nvbench(
            corpus=tiny_corpus, config=_config(), tracer=tracer
        )
        assert traced_build.pairs == plain.pairs
        assert _by_name(tracer.finished(), "corpus_build") == []  # corpus given
        assert _by_name(tracer.finished(), "filter_train")


class TestTrainTracing:
    def test_train_emits_epoch_and_step_spans(self, small_nvbench):
        from repro.neural.data import build_dataset
        from repro.neural.model import Seq2Vis
        from repro.neural.trainer import TrainConfig, train_model

        dataset = build_dataset(
            small_nvbench.pairs[:24], small_nvbench.databases
        )
        model = Seq2Vis(
            len(dataset.in_vocab), len(dataset.out_vocab), "basic", 12, 16,
            seed=0,
        )
        tracer = Tracer()
        result = train_model(
            model, dataset, dataset,
            TrainConfig(epochs=2, batch_size=8), tracer=tracer,
        )
        records = tracer.finished()
        (train,) = _by_name(records, "train")
        assert train["attributes"]["epochs_run"] == len(result.train_losses)
        epochs = _by_name(records, "epoch")
        assert len(epochs) == len(result.train_losses)
        for epoch in epochs:
            assert epoch["parent_id"] == train["span_id"]
            assert epoch["attributes"]["train_loss"] == pytest.approx(
                result.train_losses[epoch["attributes"]["epoch"]]
            )
            assert epoch["attributes"]["steps"] > 0
        steps = _by_name(records, "step")
        assert len(steps) == sum(e["attributes"]["steps"] for e in epochs)
        assert len(_by_name(records, "evaluate")) == len(epochs)

    def test_tracing_does_not_change_training(self, small_nvbench):
        from repro.neural.data import build_dataset
        from repro.neural.model import Seq2Vis
        from repro.neural.trainer import TrainConfig, train_model

        dataset = build_dataset(
            small_nvbench.pairs[:24], small_nvbench.databases
        )

        def run(tracer):
            model = Seq2Vis(
                len(dataset.in_vocab), len(dataset.out_vocab), "basic", 12, 16,
                seed=0,
            )
            return train_model(
                model, dataset, dataset,
                TrainConfig(epochs=2, batch_size=8), tracer=tracer,
            ).train_losses

        assert run(None) == run(Tracer())


@pytest.fixture(scope="module")
def traced_server(small_nvbench):
    """A baseline-only server with an in-memory span exporter."""
    from repro.serve import (
        BackgroundServer, InferenceServer, ModelRegistry, ServerConfig,
    )

    registry = ModelRegistry()
    registry.register_baselines()
    registry.set_default("deepeye")
    exporter = InMemoryExporter()
    server = InferenceServer(
        registry,
        small_nvbench.databases,
        ServerConfig(port=0, max_batch_size=4, flush_interval=0.01),
        tracer=Tracer(exporter=exporter),
    )
    with BackgroundServer(server) as background:
        yield server, background.client(), exporter


class TestServeTracing:
    def test_one_trace_from_ingress_through_decode(self, traced_server,
                                                   small_nvbench):
        _, client, exporter = traced_server
        pair = small_nvbench.pairs[0]
        body = client.translate(pair.source_nl, pair.db_name, use_cache=False)
        trace_id = body["trace_id"]
        records = [
            r for r in exporter.records() if r["trace_id"] == trace_id
        ]
        (request,) = _by_name(records, "http.request")
        assert request["attributes"]["target"] == "/translate"
        assert request["attributes"]["status"] == 200
        (wait,) = _by_name(records, "batch.wait")
        (decode,) = _by_name(records, "decode")
        for span in (wait, decode):
            assert span["parent_id"] == request["span_id"]
            assert span["attributes"]["model"] == "deepeye"
        assert decode["attributes"]["batch_size"] >= 1

    def test_trace_id_header_roundtrip(self, traced_server, small_nvbench):
        server, _, exporter = traced_server
        pair = small_nvbench.pairs[1]
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30.0
        )
        try:
            inbound = "feedfacefeedface"
            connection.request(
                "POST", "/translate",
                body=json.dumps(
                    {"question": pair.source_nl, "db": pair.db_name,
                     "use_cache": False}
                ),
                headers={"Connection": "close", "x-trace-id": inbound},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200
            assert response.getheader("X-Trace-Id") == inbound
            assert payload["trace_id"] == inbound
        finally:
            connection.close()
        decodes = [
            r for r in _by_name(exporter.records(), "decode")
            if r["trace_id"] == inbound
        ]
        assert len(decodes) == 1

    def test_pipeline_spans_join_the_request_trace(self, traced_server,
                                                   small_nvbench):
        from repro.pipeline import STAGES

        _, client, exporter = traced_server
        pair = small_nvbench.pairs[3]
        question = f"{pair.source_nl} (traced pipeline)"
        trace_id = client.pipeline(question, db=pair.db_name)["trace_id"]
        records = exporter.records()
        (request,) = [
            r for r in _by_name(records, "http.request")
            if r["trace_id"] == trace_id
        ]
        (root,) = [
            r for r in _by_name(records, "pipeline")
            if r["attributes"]["question"] == question
        ]
        assert root["trace_id"] == trace_id
        assert root["parent_id"] == request["span_id"]
        stages = [r for r in records if r["parent_id"] == root["span_id"]]
        assert sorted(r["name"] for r in stages) == sorted(STAGES)
        assert all(r["trace_id"] == trace_id for r in stages)

    def test_cached_response_gets_fresh_trace_id(self, traced_server,
                                                 small_nvbench):
        _, client, _ = traced_server
        pair = small_nvbench.pairs[2]
        first = client.translate(pair.source_nl, pair.db_name)
        second = client.translate(pair.source_nl, pair.db_name)
        assert second["cached"] is True
        assert second["trace_id"] != first["trace_id"]

    def test_metrics_reports_tracing_counters(self, traced_server):
        _, client, _ = traced_server
        report = client.metrics()
        tracing = report["tracing"]
        assert tracing["enabled"] is True
        assert tracing["spans_finished"] >= 1

    def test_untraced_server_has_no_trace_fields(self, small_nvbench):
        from repro.serve import (
            BackgroundServer, InferenceServer, ModelRegistry, ServerConfig,
        )

        registry = ModelRegistry()
        registry.register_baselines()
        registry.set_default("deepeye")
        server = InferenceServer(
            registry, small_nvbench.databases, ServerConfig(port=0)
        )
        pair = small_nvbench.pairs[0]
        with BackgroundServer(server) as background:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=30.0
            )
            try:
                connection.request(
                    "POST", "/translate",
                    body=json.dumps(
                        {"question": pair.source_nl, "db": pair.db_name}
                    ),
                    headers={"Connection": "close"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
            finally:
                connection.close()
            assert response.status == 200
            assert response.getheader("X-Trace-Id") is None
            assert "trace_id" not in payload
            assert "tracing" not in background.client().metrics()


class TestTranslateBatchTracing:
    def test_batch_spans_and_unchanged_results(self, small_nvbench):
        from repro.neural.data import build_dataset
        from repro.neural.model import Seq2Vis
        from repro.serve import translate_batch

        dataset = build_dataset(
            small_nvbench.pairs[:24], small_nvbench.databases
        )
        model = Seq2Vis(
            len(dataset.in_vocab), len(dataset.out_vocab), "basic", 12, 16,
            seed=1,
        )
        names = sorted(small_nvbench.databases)
        requests = [
            ("how many rows per category?", small_nvbench.databases[names[0]]),
            ("show average price by type", small_nvbench.databases[names[1]]),
        ]
        plain = translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, requests
        )
        tracer = Tracer()
        traced_results = translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, requests,
            tracer=tracer,
        )
        assert [r.tokens for r in traced_results] == [r.tokens for r in plain]
        names_seen = [r["name"] for r in tracer.finished()]
        assert names_seen == ["encode", "decode", "parse"]
        parse = tracer.finished()[-1]
        assert parse["attributes"]["parsed"] == sum(
            1 for r in traced_results if r.ok
        )


class TestTraceCLI:
    def test_build_trace_and_summarize(self, tmp_path, capsys):
        from repro.cli import main

        out_plain = tmp_path / "plain.json"
        out_traced = tmp_path / "traced.json"
        trace_path = tmp_path / "build.jsonl"
        base = ["build-benchmark", "--databases", "3", "--pairs-per-db", "3",
                "--row-scale", "0.3", "--seed", "3", "--workers", "2"]
        assert main(base + ["--out", str(out_plain)]) == 0
        assert main(
            base + ["--out", str(out_traced), "--trace", str(trace_path)]
        ) == 0
        # Tracing never changes the benchmark: byte-identical pair files.
        assert out_plain.read_bytes() == out_traced.read_bytes()

        records = load_spans(str(trace_path))
        assert _by_name(records, "build_nvbench")
        assert len(_by_name(records, "shard")) == 3  # one per database

        capsys.readouterr()
        assert main(["trace", "summarize", str(trace_path)]) == 0
        output = capsys.readouterr().out
        assert "build_nvbench" in output
        assert "shard ×3" in output
        assert "stage breakdown" in output

    def test_profile_and_trace_share_one_tracer(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "build.jsonl"
        profile_path = tmp_path / "profile.json"
        assert main([
            "build-benchmark", "--databases", "2", "--pairs-per-db", "3",
            "--row-scale", "0.3", "--seed", "3", "--out", str(tmp_path / "b.json"),
            "--trace", str(trace_path), "--profile", str(profile_path),
        ]) == 0
        capsys.readouterr()
        records = load_spans(str(trace_path))
        report = json.loads(profile_path.read_text())
        calls = {}
        for record in records:
            calls[record["name"]] = calls.get(record["name"], 0) + 1
        assert {name: stage["calls"] for name, stage in report["stages"].items()} \
            == calls
        kept = sum(r["attributes"]["candidates_kept"]
                   for r in _by_name(records, "select"))
        assert report["counters"]["candidates_kept"] == kept

    def test_summarize_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(
            ["trace", "summarize", str(tmp_path / "absent.jsonl")]
        ) == 2
        assert "no such span export" in capsys.readouterr().err
