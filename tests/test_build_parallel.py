"""Determinism of the parallel, cached, sharded benchmark build.

The build must produce the same pair list no matter how it is executed:
sharded over a process pool or serial, with or without the execution
cache, streamed to disk or held in memory, fresh or resumed after a
kill.  These are the guarantees that make ``workers=N``, ``use_cache``,
``out=``, and ``resume=`` pure performance/robustness knobs.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.core.nvbench import (
    NVBenchConfig,
    build_nvbench,
    build_profile,
    load_nvbench_dir,
)
from repro.obs import SpanAggregator, Tracer
from repro.spider.corpus import CorpusConfig, build_spider_corpus


@pytest.fixture(scope="module")
def tiny_corpus():
    return build_spider_corpus(
        CorpusConfig(num_databases=3, pairs_per_database=4, row_scale=0.3, seed=3)
    )


def _config(use_cache: bool = True) -> NVBenchConfig:
    return NVBenchConfig(
        filter_training_pairs=12, use_cache=use_cache, seed=3
    )


def _stream_config(use_cache: bool = True) -> NVBenchConfig:
    return NVBenchConfig(
        corpus=CorpusConfig(
            num_databases=3, pairs_per_database=4, row_scale=0.3, seed=3
        ),
        filter_training_pairs=12, use_cache=use_cache, seed=3,
    )


def _profiled(**kwargs):
    """``(bench, --profile report)`` of one ``build_nvbench(**kwargs)``."""
    spans = SpanAggregator()
    bench = build_nvbench(tracer=Tracer(exporter=spans), **kwargs)
    return bench, build_profile(spans)


def _file_states(root) -> dict:
    """Bytes and ``st_mtime_ns`` of every file under *root*, journal
    included."""
    return {
        path.relative_to(root).as_posix(): (
            path.read_bytes(), path.stat().st_mtime_ns
        )
        for path in sorted(Path(root).rglob("*"))
        if path.is_file()
    }


def _dir_digest(root, like=None) -> str:
    """One hash over every shard/corpus/manifest byte (cache excluded —
    the journal is a performance side-channel, not build output); with
    *like*, over only the files that directory holds."""
    digest = hashlib.sha256()
    base = Path(like if like is not None else root)
    for path in sorted(base.rglob("*")):
        if path.is_file() and "cache" not in path.parts:
            relative = path.relative_to(base).as_posix()
            digest.update(relative.encode())
            digest.update((Path(root) / relative).read_bytes())
    return digest.hexdigest()


class TestBuildDeterminism:
    def test_workers4_matches_workers1(self, tiny_corpus):
        serial = build_nvbench(corpus=tiny_corpus, config=_config(), workers=1)
        parallel = build_nvbench(corpus=tiny_corpus, config=_config(), workers=4)
        assert serial.pairs
        assert parallel.pairs == serial.pairs

    def test_cached_matches_uncached(self, tiny_corpus):
        cached = build_nvbench(corpus=tiny_corpus, config=_config(use_cache=True))
        uncached = build_nvbench(
            corpus=tiny_corpus, config=_config(use_cache=False)
        )
        assert cached.pairs
        assert cached.pairs == uncached.pairs

    def test_more_workers_than_databases(self, tiny_corpus):
        # Shard count is capped at the database count; empty shards never
        # reach the pool.
        serial = build_nvbench(corpus=tiny_corpus, config=_config(), workers=1)
        oversubscribed = build_nvbench(
            corpus=tiny_corpus, config=_config(), workers=16
        )
        assert oversubscribed.pairs == serial.pairs

    def test_repeat_builds_identical(self, tiny_corpus):
        first = build_nvbench(corpus=tiny_corpus, config=_config())
        second = build_nvbench(corpus=tiny_corpus, config=_config())
        assert first.pairs == second.pairs


class TestBuildProfile:
    def test_serial_profile_has_stages_and_cache_counters(self, tiny_corpus):
        _, report = _profiled(corpus=tiny_corpus, config=_config())
        for name in ("filter_train", "synthesize", "featurize", "score"):
            assert name in report["stages"]
            assert report["stages"][name]["calls"] >= 1
            assert report["stages"][name]["seconds"] >= 0.0
        # The filter-training pass primes the cache, so synthesis hits it.
        assert report["counters"]["execution_cache_hits"] > 0
        assert report["counters"]["execution_cache_misses"] > 0

    def test_parallel_profile_merges_worker_reports(self, tiny_corpus):
        _, report = _profiled(corpus=tiny_corpus, config=_config(), workers=2)
        assert report["stages"]["featurize"]["calls"] >= 1
        assert report["counters"]["candidates_enumerated"] > 0

    def test_profile_json_roundtrip(self, tiny_corpus, tmp_path):
        import json

        _, report = _profiled(corpus=tiny_corpus, config=_config())
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(report, indent=2))
        assert json.loads(path.read_text()) == report

    @pytest.mark.parametrize("mode", ["streamed", "corpus"])
    def test_sharded_serial_and_parallel_counters_match(
        self, tiny_corpus, tmp_path, mode
    ):
        # Pool workers start from the journal's entries for their
        # database, so a sharded build counts the same cache hits too.
        source = (
            {"config": _stream_config(), "stream": True} if mode == "streamed"
            else {"corpus": tiny_corpus, "config": _config()}
        )
        _, serial = _profiled(out=str(tmp_path / "serial"), **source)
        _, parallel = _profiled(
            out=str(tmp_path / "parallel"), workers=2, **source
        )
        assert serial["counters"]["shards_built"] == 3
        assert parallel["counters"] == serial["counters"]
        assert {name: stage["calls"] for name, stage in parallel["stages"].items()} \
            == {name: stage["calls"] for name, stage in serial["stages"].items()}

    def test_in_memory_serial_and_parallel_counters_match(self, tiny_corpus):
        # Pool workers are seeded from the coordinator's in-memory cache,
        # so even the execution-cache counts match the serial build.
        _, serial = _profiled(corpus=tiny_corpus, config=_config())
        _, parallel = _profiled(corpus=tiny_corpus, config=_config(), workers=2)
        assert parallel["counters"] == serial["counters"]
        assert serial["counters"]["resident_pairs_peak"] > 0

    def test_untraced_traced_and_profiled_builds_write_identical_files(
        self, tiny_corpus, tmp_path
    ):
        from repro.obs import JsonlExporter

        build_nvbench(
            corpus=tiny_corpus, config=_config(), out=str(tmp_path / "plain")
        )
        exporter = JsonlExporter(str(tmp_path / "trace.jsonl"))
        build_nvbench(
            corpus=tiny_corpus, config=_config(), out=str(tmp_path / "traced"),
            tracer=Tracer(exporter=exporter),
        )
        exporter.close()
        _profiled(
            corpus=tiny_corpus, config=_config(), out=str(tmp_path / "profiled")
        )
        reference = _dir_digest(tmp_path / "plain")
        assert _dir_digest(tmp_path / "traced") == reference
        assert _dir_digest(tmp_path / "profiled") == reference


class _StopBuild(Exception):
    """Injected mid-build to simulate a killed process."""


class TestShardedDeterminismMatrix:
    """Serial == workers=N == interrupted-then-resumed, byte for byte."""

    def test_sharded_matches_in_memory(self, tiny_corpus, tmp_path):
        in_memory = build_nvbench(corpus=tiny_corpus, config=_config())
        sharded = build_nvbench(
            corpus=tiny_corpus, config=_config(), out=str(tmp_path / "dir")
        )
        assert list(sharded.pairs) == list(in_memory.pairs)

    def test_serial_and_parallel_shards_byte_identical(
        self, tiny_corpus, tmp_path
    ):
        build_nvbench(
            corpus=tiny_corpus, config=_config(), out=str(tmp_path / "serial")
        )
        build_nvbench(
            corpus=tiny_corpus, config=_config(), workers=2,
            out=str(tmp_path / "parallel"),
        )
        assert _dir_digest(tmp_path / "serial") == \
            _dir_digest(tmp_path / "parallel")

    def test_interrupted_then_resumed_is_byte_identical(self, tmp_path):
        build_nvbench(
            config=_stream_config(), stream=True, out=str(tmp_path / "fresh")
        )

        def kill_after_first(unit_index: int, db_name: str) -> None:
            if unit_index >= 1:
                raise _StopBuild(db_name)

        with pytest.raises(_StopBuild):
            build_nvbench(
                config=_stream_config(), stream=True,
                out=str(tmp_path / "killed"), after_shard=kill_after_first,
            )
        # the killed directory is a strict prefix: manifest committed
        # only for completed shards
        partial = load_nvbench_dir(str(tmp_path / "killed"))
        full = load_nvbench_dir(str(tmp_path / "fresh"))
        assert 0 < len(partial.pairs) < len(full.pairs)

        _, report = _profiled(
            config=_stream_config(), stream=True,
            out=str(tmp_path / "killed"), resume=True,
        )
        counters = report["counters"]
        assert counters["shards_skipped_clean"] >= 1
        assert counters["shards_built"] >= 1
        assert _dir_digest(tmp_path / "killed") == \
            _dir_digest(tmp_path / "fresh")

    def test_streamed_serial_matches_parallel(self, tmp_path):
        build_nvbench(
            config=_stream_config(), stream=True, out=str(tmp_path / "s")
        )
        build_nvbench(
            config=_stream_config(), stream=True, workers=2,
            out=str(tmp_path / "p"),
        )
        assert _dir_digest(tmp_path / "s") == _dir_digest(tmp_path / "p")

    def test_lazy_load_equals_built(self, tiny_corpus, tmp_path):
        built = build_nvbench(
            corpus=tiny_corpus, config=_config(), out=str(tmp_path / "dir")
        )
        loaded = load_nvbench_dir(str(tmp_path / "dir"))
        assert list(loaded.pairs) == list(built.pairs)
        assert set(loaded.databases) == set(tiny_corpus.databases)
        assert len(loaded.corpus.pairs) == len(tiny_corpus.pairs)
        # spot-check random access against iteration order
        assert loaded.pairs[0] == list(loaded.pairs)[0]
        assert loaded.pairs[len(loaded.pairs) - 1] == \
            list(loaded.pairs)[-1]


class TestResumeAndCorruption:
    def test_clean_resume_skips_every_shard(self, tiny_corpus, tmp_path):
        out = str(tmp_path / "dir")
        build_nvbench(corpus=tiny_corpus, config=_config(), out=out)
        _, report = _profiled(
            corpus=tiny_corpus, config=_config(), out=out, resume=True,
        )
        counters = report["counters"]
        assert counters["shards_skipped_clean"] == counters["shards_total"]
        assert "shards_built" not in counters

    def test_clean_resume_writes_no_manifest(
        self, tiny_corpus, tmp_path, monkeypatch
    ):
        from repro.storage.shards import ShardStore

        out = str(tmp_path / "dir")
        build_nvbench(corpus=tiny_corpus, config=_config(), out=out)
        saves = []
        original = ShardStore.save_manifest

        def counting(store, manifest):
            saves.append(len(manifest.entries))
            original(store, manifest)

        monkeypatch.setattr(ShardStore, "save_manifest", counting)
        build_nvbench(corpus=tiny_corpus, config=_config(), out=out, resume=True)
        assert saves == []

    @pytest.mark.parametrize("mode", ["corpus", "streamed"])
    def test_clean_resume_opens_no_journal_and_trains_no_filter(
        self, tiny_corpus, tmp_path, monkeypatch, mode
    ):
        import repro.core.nvbench as nvbench
        import repro.storage.journal as journal

        out = tmp_path / "dir"
        if mode == "corpus":
            kwargs = dict(corpus=tiny_corpus, config=_config())
        else:
            kwargs = dict(config=_stream_config(), stream=True)
        built = build_nvbench(out=str(out), **kwargs)
        before = _file_states(out)
        assert "manifest.json" in before and "cache/journal.jsonl" in before

        def forbidden(*args, **kwargs):
            raise AssertionError("a clean resume needs no journal or filter")

        monkeypatch.setattr(journal, "load_journal", forbidden)
        monkeypatch.setattr(nvbench, "train_filter_from_candidates", forbidden)
        resumed = build_nvbench(out=str(out), resume=True, **kwargs)
        assert list(resumed.pairs) == list(built.pairs)
        assert _file_states(out) == before

    def test_smaller_streamed_resume_rewrites_manifest(self, tmp_path):
        # The filter trains on the first database alone, so the
        # two-database prefix's shards are the full build's first two.
        config = NVBenchConfig(
            corpus=_stream_config().corpus, filter_training_pairs=4, seed=3
        )
        out = tmp_path / "dir"
        build_nvbench(config=config, stream=True, out=str(out))
        _, report = _profiled(
            config=config, stream=True, out=str(out), resume=True,
            max_databases=2,
        )
        assert report["counters"]["shards_skipped_clean"] == 2
        assert "shards_built" not in report["counters"]
        build_nvbench(
            config=config, stream=True, out=str(tmp_path / "prefix"),
            max_databases=2,
        )
        assert (out / "manifest.json").read_bytes() == \
            (tmp_path / "prefix" / "manifest.json").read_bytes()

    def test_streamed_prefix_is_the_full_builds_prefix(self, tmp_path):
        # The filter's 12 training pairs span all three databases, so a
        # two-database prefix must still train on the third's pairs.
        full, prefix = tmp_path / "full", tmp_path / "prefix"
        build_nvbench(config=_stream_config(), stream=True, out=str(full))
        build_nvbench(
            config=_stream_config(), stream=True, out=str(prefix),
            max_databases=2,
        )
        shards = sorted((prefix / "shards").glob("*.jsonl"))
        assert len(shards) == 2
        for shard in shards:
            assert shard.read_bytes() == \
                (full / "shards" / shard.name).read_bytes(), shard.name
        build_nvbench(
            config=_stream_config(), stream=True, out=str(full), resume=True,
            max_databases=2,
        )
        # The resume leaves the third database's files, which its
        # manifest no longer names, beside the prefix's.
        assert _dir_digest(full, like=prefix) == _dir_digest(prefix)

    def test_failed_rebuild_keeps_every_previous_entry(
        self, tiny_corpus, tmp_path, monkeypatch
    ):
        import json

        from repro.storage.shards import ShardStore

        out = tmp_path / "dir"
        build_nvbench(corpus=tiny_corpus, config=_config(), out=str(out))
        manifest_path = out / "manifest.json"
        before = json.loads(manifest_path.read_text())["databases"]
        victim = sorted((out / "shards").glob("*.jsonl"))[-1]
        victim.write_text("truncated mid-write")

        def crash(store, db_name, records):
            raise _StopBuild(db_name)

        monkeypatch.setattr(ShardStore, "write_shard", crash)
        with pytest.raises(_StopBuild):
            # skips the clean shards, then dies rebuilding the dirty one
            build_nvbench(
                corpus=tiny_corpus, config=_config(), out=str(out),
                resume=True,
            )
        after = json.loads(manifest_path.read_text())["databases"]
        assert [entry["name"] for entry in after] == \
            [entry["name"] for entry in before]

    def test_truncated_shard_is_rebuilt_not_merged(self, tiny_corpus, tmp_path):
        out = tmp_path / "dir"
        build_nvbench(corpus=tiny_corpus, config=_config(), out=str(out))
        reference = _dir_digest(out)
        victim = sorted((out / "shards").glob("*.jsonl"))[0]
        lines = victim.read_text().splitlines(keepends=True)
        victim.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])

        resumed, report = _profiled(
            corpus=tiny_corpus, config=_config(), out=str(out), resume=True,
        )
        counters = report["counters"]
        assert counters["shards_rebuilt_dirty"] == 1
        assert counters["shards_built"] == 1
        assert counters["shards_skipped_clean"] == counters["shards_total"] - 1
        # a dirty shard opens the journal and trains the filter, once
        assert counters["cache_journal_preloaded"] > 0
        assert report["stages"]["filter_train"]["calls"] == 1
        assert _dir_digest(out) == reference
        fresh = build_nvbench(corpus=tiny_corpus, config=_config())
        assert list(resumed.pairs) == list(fresh.pairs)

    def test_garbled_shard_is_rebuilt(self, tiny_corpus, tmp_path):
        out = tmp_path / "dir"
        build_nvbench(corpus=tiny_corpus, config=_config(), out=str(out))
        reference = _dir_digest(out)
        victim = sorted((out / "shards").glob("*.jsonl"))[-1]
        victim.write_text('{"not": "a pair record"}\ngarbage{{{\n')
        build_nvbench(
            corpus=tiny_corpus, config=_config(), out=str(out), resume=True
        )
        assert _dir_digest(out) == reference

    def test_config_change_dirties_every_shard(self, tiny_corpus, tmp_path):
        out = str(tmp_path / "dir")
        build_nvbench(corpus=tiny_corpus, config=_config(), out=out)
        changed = NVBenchConfig(
            filter_training_pairs=12, use_cache=True, seed=4
        )
        _, report = _profiled(
            corpus=tiny_corpus, config=changed, out=out, resume=True,
        )
        counters = report["counters"]
        assert "shards_skipped_clean" not in counters
        assert counters["shards_built"] == counters["shards_total"]


class TestPersistentCache:
    def test_journal_primes_second_build(self, tiny_corpus, tmp_path):
        out = str(tmp_path / "dir")
        build_nvbench(corpus=tiny_corpus, config=_config(), out=out)
        journal = tmp_path / "dir" / "cache" / "journal.jsonl"
        assert journal.is_file() and journal.stat().st_size > 0

        # force a rebuild (no resume) — the journal survives and preloads
        rebuilt, report = _profiled(
            corpus=tiny_corpus, config=_config(), out=out
        )
        counters = report["counters"]
        assert counters["cache_journal_preloaded"] > 0
        assert counters["cache_journal_corrupt"] == 0
        fresh = build_nvbench(corpus=tiny_corpus, config=_config())
        assert list(rebuilt.pairs) == list(fresh.pairs)

    def test_corrupt_journal_lines_are_skipped_and_counted(
        self, tiny_corpus, tmp_path
    ):
        out = str(tmp_path / "dir")
        build_nvbench(corpus=tiny_corpus, config=_config(), out=out)
        journal = tmp_path / "dir" / "cache" / "journal.jsonl"
        good = journal.read_text().splitlines(keepends=True)
        tampered = good[0].replace('"rows"', '"Rows"', 1)
        journal.write_text(
            "not json at all\n" + tampered + "".join(good[1:]) +
            good[-1][: len(good[-1]) // 2]
        )
        rebuilt, report = _profiled(
            corpus=tiny_corpus, config=_config(), out=out
        )
        counters = report["counters"]
        assert counters["cache_journal_corrupt"] >= 2
        assert counters["cache_journal_preloaded"] > 0
        fresh = build_nvbench(corpus=tiny_corpus, config=_config())
        assert list(rebuilt.pairs) == list(fresh.pairs)

    def test_parallel_build_reuses_journal(self, tiny_corpus, tmp_path):
        out = str(tmp_path / "dir")
        build_nvbench(corpus=tiny_corpus, config=_config(), out=out)
        _, report = _profiled(
            corpus=tiny_corpus, config=_config(), out=out, workers=2,
        )
        counters = report["counters"]
        assert counters["cache_journal_preloaded"] > 0
        # workers were pre-seeded, so they hit instead of re-executing
        assert counters["execution_cache_hits"] > 0
