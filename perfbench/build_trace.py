"""Per-layer spans for the ``build`` workload (traced runs only).

Wraps the public functions each layer does its work in, where the
caller looks them up, and turns the spans of the cold build, the
resumes and the read-backs into the per-layer metrics.
"""

from __future__ import annotations

import os

from spans import Recorder


def install() -> Recorder:
    import repro.core.filter_model as filter_model
    import repro.core.nvbench as nvbench
    import repro.core.synthesizer as synthesizer
    import repro.grammar.serialize as serialize
    import repro.storage.executor as executor
    import repro.storage.journal as journal
    import repro.storage.shards as shards

    rec = Recorder()

    def count_candidates(args, result):
        if rec.parent_name() == "core.good_candidates":
            rec.counts[rec.phase + ".candidates"] += len(result)

    def count_kept(args, result):
        rec.counts[rec.phase + ".kept"] += len(result)

    def keep_cache(args, result):
        rec.objects.setdefault(rec.phase + ".cache", result)

    rec.wrap(nvbench, "generate_corpus_unit", "spider.generate")
    rec.wrap(nvbench, "_make_filter_streamed", "core.filter_train")
    rec.wrap(nvbench, "generate_candidates", "core.candidates")
    rec.wrap(nvbench, "_default_cache", "storage.open_cache", keep_cache)
    rec.wrap(synthesizer, "generate_candidates", "core.candidates",
             count_candidates)
    rec.wrap(synthesizer.NL2VISSynthesizer, "good_candidates",
             "core.good_candidates", count_kept)
    rec.wrap(synthesizer, "extract_features", "core.featurize")
    rec.wrap(synthesizer, "synthesize_nl_variants", "core.nl_variants")
    rec.wrap(filter_model.DeepEyeFilter, "score_batch", "core.score")
    rec.wrap(executor.Executor, "execute", "storage.execute")
    rec.wrap(executor.Executor, "_execute", "storage.execute_run")
    rec.wrap(shards.ShardStore, "write_shard", "storage.write_shard")
    rec.wrap(shards.ShardStore, "write_corpus_unit", "storage.write_corpus")
    rec.wrap(shards.ShardStore, "save_manifest", "storage.save_manifest")
    rec.wrap(shards.ShardStore, "entry_is_clean", "storage.verify")
    rec.wrap(shards.ShardStore, "read_shard_pairs", "storage.shard_read")
    rec.wrap(journal.PersistentExecutionCache, "flush", "storage.journal_flush")
    rec.wrap(journal, "load_journal", "storage.journal_preload")
    rec.wrap(os, "fsync", "storage.fsync")
    rec.wrap(serialize, "from_tokens", "grammar.from_tokens")
    return rec


def report(rec: Recorder, out, result: dict, ctx) -> None:
    from build_wl import REPEATS, SCAN_REPEATS

    build_self = rec.self_seconds("build")
    build_total = rec.total_seconds("build")
    resume_total = rec.total_seconds("resume")
    scan_self = rec.self_seconds("scan")
    scan_total = rec.total_seconds("scan")
    directory = result["dir"]
    pairs = result["pairs"]

    inputs = rec.calls("core.good_candidates", "build")
    candidates = rec.counts["build.candidates"]
    lookups = rec.calls("storage.execute", "build")
    executions = rec.calls("storage.execute_run", "build")
    journal = directory / "cache" / "journal.jsonl"
    disk_bytes = sum(
        path.stat().st_size for path in directory.rglob("*") if path.is_file()
    )

    metrics = [
        ("spider.generate_s", build_self["spider.generate"], "s"),
        ("core.candidates_s", build_self["core.candidates"], "s"),
        ("core.featurize_s", build_self["core.featurize"], "s"),
        ("core.score_s", build_self["core.score"], "s"),
        ("core.nl_variants_s", build_self["core.nl_variants"], "s"),
        ("core.filter_train_s", build_total["core.filter_train"], "s"),
        ("core.candidates_per_input", candidates / max(inputs, 1), "count"),
        ("core.kept_per_candidate",
         rec.counts["build.kept"] / max(candidates, 1), "ratio"),
        ("storage.execute_s", build_total["storage.execute"], "s"),
        ("storage.executions", executions, "count"),
        ("storage.cache_hit_ratio", 1 - executions / max(lookups, 1), "ratio"),
        ("storage.cache_entries", len(rec.objects["build.cache"]), "count"),
        ("storage.shard_commit_s",
         build_total["storage.write_shard"] + build_total["storage.write_corpus"]
         + build_total["storage.save_manifest"], "s"),
        ("storage.journal_flush_s", build_total["storage.journal_flush"], "s"),
        ("storage.fsyncs", rec.calls("storage.fsync", "build"), "count"),
        ("storage.bytes_per_pair", disk_bytes / pairs, "bytes"),
        ("storage.journal_preload_s",
         resume_total["storage.journal_preload"] / REPEATS, "s"),
        ("storage.journal_lines",
         len(journal.read_text().splitlines()), "count"),
        ("storage.verify_s", resume_total["storage.verify"] / REPEATS, "s"),
        ("storage.manifest_writes",
         rec.calls("storage.save_manifest", "resume") / REPEATS, "count"),
        ("storage.shard_read_s", scan_self["storage.shard_read"] / SCAN_REPEATS,
         "s"),
        ("grammar.from_tokens_s",
         scan_total["grammar.from_tokens"] / SCAN_REPEATS, "s"),
    ]
    for name, value, unit in metrics:
        out.metric(name, value, unit)
    ctx.log(f"traced: {len(rec.spans)} spans; per resume: journal preload "
            f"{resume_total['storage.journal_preload'] / REPEATS:.3f} s, "
            f"chart-filter training "
            f"{resume_total['core.filter_train'] / REPEATS:.3f} s, manifest "
            f"writes {resume_total['storage.save_manifest'] / REPEATS:.3f} s")
