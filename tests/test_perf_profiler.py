"""Unit tests for the perf layer: span-derived build profiles, execution
cache, batch scoring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.filter_model import (
    DeepEyeFilter,
    extract_features,
    train_filter_from_candidates,
)
from repro.core.nvbench import build_profile
from repro.core.tree_edits import generate_candidates
from repro.obs import SpanAggregator, Tracer, render_stage_table
from repro.sqlparse.parser import parse_sql
from repro.storage.executor import ExecutionCache, ExecutionError, Executor


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestBuildProfiler:
    """The build ``--profile`` report, folded from spans as they finish."""

    def _tracer(self, clock=None):
        spans = SpanAggregator()
        return spans, Tracer(exporter=spans, clock=clock or FakeClock())

    def test_stage_accumulates_time_and_calls(self):
        clock = FakeClock()
        spans, tracer = self._tracer(clock)
        with tracer.span("build_nvbench"):
            for _ in range(3):
                with tracer.span("work"):
                    clock.now += 0.5
        report = build_profile(spans)
        assert report["stages"]["work"] == {"calls": 3, "seconds": 1.5}
        assert report["total_seconds"] == 1.5

    def test_stage_records_on_exception(self):
        clock = FakeClock()
        spans, tracer = self._tracer(clock)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                clock.now += 1.0
                raise ValueError("x")
        assert spans.get("boom").seconds == 1.0
        assert spans.get("boom").errors == 1

    def test_counters_and_merge(self):
        # A pool worker's buffered spans count once absorbed.
        spans, tracer = self._tracer()
        with tracer.span("select", candidates_kept=2):
            pass
        worker = Tracer(clock=FakeClock())
        with worker.span("select", candidates_kept=3):
            pass
        with worker.span("shard", execution_cache_hits=4, db="flights"):
            pass
        tracer.absorb(worker.finished())
        report = build_profile(spans)
        assert report["counters"] == {
            "candidates_kept": 5, "execution_cache_hits": 4,
        }
        assert report["stages"]["select"]["calls"] == 2

    def test_summary_mentions_stages(self):
        spans, tracer = self._tracer()
        tracer.record("synthesize", duration_s=2.0, shards_built=7)
        text = render_stage_table(spans.rows())
        assert "synthesize" in text
        assert build_profile(spans)["counters"] == {"shards_built": 7}


class TestExecutionCache:
    def test_hit_returns_same_result(self, flight_db):
        cache = ExecutionCache()
        query = parse_sql("SELECT origin, price FROM flight", flight_db)
        first = Executor(flight_db, cache=cache).execute(query)
        second = Executor(flight_db, cache=cache).execute(query)
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_key_ignores_vis_type(self, flight_db):
        from repro.grammar.ast_nodes import VisQuery

        query = parse_sql(
            "SELECT origin, COUNT(*) FROM flight GROUP BY origin", flight_db
        )
        bar = VisQuery(vis_type="bar", body=query.body)
        pie = VisQuery(vis_type="pie", body=query.body)
        assert ExecutionCache.key_of("flights", bar) == ExecutionCache.key_of(
            "flights", pie
        )
        assert ExecutionCache.key_of("flights", bar) != ExecutionCache.key_of(
            "other_db", bar
        )

    def test_failures_are_cached(self, flight_db):
        cache = ExecutionCache()
        query = parse_sql("SELECT origin, price FROM flight ORDER BY fno", flight_db)
        for _ in range(2):
            with pytest.raises(ExecutionError):
                Executor(flight_db, cache=cache).execute(query)
        assert cache.misses == 1 and cache.hits == 1

    def test_cached_featurization_matches_uncached(self, flight_db):
        cache = ExecutionCache()
        query = parse_sql("SELECT origin, price FROM flight", flight_db)
        for candidate in generate_candidates(query, flight_db):
            plain = extract_features(candidate.vis, flight_db)
            cached = extract_features(candidate.vis, flight_db, cache=cache)
            assert plain == cached
        assert cache.hits > 0
        assert cache.stats()["hit_rate"] > 0.0


class TestBatchScoring:
    def _features(self, flight_db, sql="SELECT origin, price FROM flight"):
        query = parse_sql(sql, flight_db)
        out = []
        for candidate in generate_candidates(query, flight_db):
            features = extract_features(candidate.vis, flight_db)
            if features is not None:
                out.append(features)
        return out

    def test_score_batch_matches_score_untrained(self, flight_db):
        chart_filter = DeepEyeFilter()
        features = self._features(flight_db)
        assert features
        batch = chart_filter.score_batch(features)
        single = [chart_filter.score(f) for f in features]
        assert np.allclose(batch, single)

    def test_score_batch_matches_score_trained(self, flight_db):
        query = parse_sql("SELECT origin, price FROM flight", flight_db)
        charts = [
            (candidate.vis, flight_db)
            for candidate in generate_candidates(query, flight_db)
        ]
        chart_filter = train_filter_from_candidates(charts, seed=1)
        features = self._features(flight_db)
        batch = chart_filter.score_batch(features)
        single = [chart_filter.score(f) for f in features]
        assert np.allclose(batch, single)

    def test_score_batch_empty(self):
        assert DeepEyeFilter().score_batch([]).shape == (0,)
