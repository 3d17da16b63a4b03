"""Edge cases for :class:`repro.perf.Histogram` and the ``--profile``
JSON report schemas.

The histogram backs every latency/batch-size metric surface and the
profile reports (computed from spans by
:func:`repro.core.nvbench.build_profile` and
:func:`repro.neural.trainer.train_profile`) are the on-disk contract of
``--profile`` and the ``BENCH_*.json`` trajectories — their shapes are
asserted here so a refactor cannot silently change what downstream
tooling parses.
"""

from __future__ import annotations

import json

import pytest

from repro.core.nvbench import build_profile
from repro.neural.trainer import train_profile
from repro.obs import SpanAggregator, Tracer
from repro.perf import Histogram


def _spans(keep=()):
    spans = SpanAggregator(keep=keep)
    return spans, Tracer(exporter=spans)


class TestHistogramEdgeCases:
    def test_empty_histogram(self):
        hist = Histogram((1.0, 10.0))
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.min is None
        assert hist.max is None
        assert hist.percentile(0) == 0.0
        assert hist.percentile(50) == 0.0
        assert hist.percentile(100) == 0.0
        summary = hist.summary()
        assert summary["count"] == 0
        assert all(count == 0 for count in summary["buckets"].values())

    def test_single_observation(self):
        hist = Histogram((1.0, 10.0))
        hist.observe(3.5)
        assert hist.count == 1
        assert hist.mean == 3.5
        assert hist.min == hist.max == 3.5
        # every percentile of a single sample is that sample
        for q in (0, 50, 99, 100):
            assert hist.percentile(q) == 3.5
        assert hist.buckets() == {"le_1": 0, "le_10": 1, "le_inf": 0}

    def test_out_of_range_lands_in_overflow_bucket(self):
        hist = Histogram((1.0, 10.0))
        hist.observe(10.0)        # boundary: <= bound is inclusive
        hist.observe(10.0001)     # just past the last bound
        hist.observe(1e9)         # far out of range
        assert hist.buckets() == {"le_1": 0, "le_10": 1, "le_inf": 2}
        assert hist.max == 1e9

    def test_negative_and_zero_land_in_first_bucket(self):
        hist = Histogram((1.0, 10.0))
        hist.observe(0.0)
        hist.observe(-5.0)
        assert hist.buckets()["le_1"] == 2
        assert hist.min == -5.0

    def test_window_bounds_percentiles_not_totals(self):
        hist = Histogram((100.0,), window=4)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            hist.observe(value)
        # totals see everything...
        assert hist.count == 6
        assert hist.mean == pytest.approx(3.5)
        assert hist.min == 1.0
        # ...percentiles only the retained window (3, 4, 5, 6)
        assert hist.percentile(0) == 3.0
        assert hist.percentile(100) == 6.0

    def test_fractional_bucket_labels(self):
        hist = Histogram((0.5, 2.5))
        assert list(hist.buckets()) == ["le_0.5", "le_2.5", "le_inf"]


class TestBuildProfilerReportSchema:
    def test_report_shape(self):
        spans, tracer = _spans()
        with tracer.span("build_nvbench", execution_cache_hits=3):
            with tracer.span("synthesize"):
                pass
        report = build_profile(spans)
        assert set(report) == {"total_seconds", "stages", "counters"}
        assert set(report["stages"]["synthesize"]) == {"calls", "seconds"}
        assert report["stages"]["synthesize"]["calls"] == 1
        assert report["counters"] == {"execution_cache_hits": 3}
        assert report["total_seconds"] >= 0.0

    def test_write_json_round_trips(self, tmp_path):
        spans, tracer = _spans()
        with tracer.span("featurize"):
            pass
        report = build_profile(spans)
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(report, indent=2))
        assert json.loads(path.read_text()) == json.loads(json.dumps(report))

    def test_stages_and_counters_are_sorted(self):
        spans, tracer = _spans()
        for name, counter in (("zeta", "shards_total"),
                              ("alpha", "cache_journal_corrupt"),
                              ("midway", "execution_cache_hits")):
            tracer.record(name, duration_s=0.01, **{counter: 1})
        report = build_profile(spans)
        assert list(report["stages"]) == ["alpha", "midway", "zeta"]
        assert list(report["counters"]) == [
            "cache_journal_corrupt", "execution_cache_hits", "shards_total",
        ]


class TestTrainProfilerReportSchema:
    def test_report_shape(self):
        spans, tracer = _spans(keep=("epoch",))
        tracer.record("step", duration_s=0.01, tokens=100)
        tracer.record("step", duration_s=0.01, tokens=120)
        tracer.record("epoch", duration_s=0.02, epoch=0, tokens=220, steps=2,
                      train_loss=1.5, val_loss=1.2)
        report = train_profile(spans)
        assert set(report) == {
            "tokens", "steps", "train_seconds", "tokens_per_sec",
            "step_ms", "epochs",
        }
        assert report["tokens"] == 220
        assert report["steps"] == 2
        assert report["step_ms"]["count"] == 2
        assert report["tokens_per_sec"] == pytest.approx(220 / 0.02)
        (epoch,) = report["epochs"]
        assert set(epoch) == {
            "epoch", "seconds", "tokens", "steps", "tokens_per_sec",
            "train_loss", "val_loss",
        }
        assert epoch["val_loss"] == 1.2
        assert epoch["tokens_per_sec"] == pytest.approx(220 / 0.02)

    def test_report_is_json_serializable(self, tmp_path):
        spans, tracer = _spans(keep=("epoch",))
        tracer.record("step", duration_s=0.005, tokens=64)
        tracer.record("epoch", duration_s=0.005, epoch=0, tokens=64, steps=1,
                      train_loss=2.0, val_loss=None)
        path = tmp_path / "train.json"
        path.write_text(json.dumps(train_profile(spans), indent=2))
        loaded = json.loads(path.read_text())
        assert loaded["epochs"][0]["val_loss"] is None
        assert loaded["tokens_per_sec"] > 0.0

    def test_empty_profiler_reports_zeros(self):
        spans, _ = _spans(keep=("epoch",))
        report = train_profile(spans)
        assert report["tokens"] == 0
        assert report["steps"] == 0
        assert report["tokens_per_sec"] == 0.0
        assert report["epochs"] == []
