"""``build``: cold streamed build, clean resume, and lazy read-back.

The input is a fixed prefix of the paper-scale plan (``paper_scale_config``,
corpus seed 7).  It does not depend on ``--seed``: the pairs that break
Table 1 are counted as failed operations, and that count must be the
same share of the attempted pairs in every run.  The seed orders the
read-back (the databases are visited in a seeded permutation).

A run builds the prefix twice, each time into a fresh shard directory,
reads every pair of the second back eleven times, resumes its build
eleven times, then checks the output: identical builds, token round
trips, pair counts, shard hashes, byte-identical resume, Table-1 rules,
and every distinct unbinned chart against sqlite3.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from common import (
    Context, HostWatch, Outcome, at_reference, import_probe_s, median,
    self_peak_rss_mb,
)

#: Databases of the paper-scale plan built per run.  The full plan
#: (153 databases, ~40 s on two vCPUs) does not fit the run budget; this
#: prefix keeps the cold build near eight seconds and still holds
#: Table-1 faults.
PREFIX_DATABASES = 30
#: Cold builds per run; their median (the mean of two) is reported.  A
#: single build moved by up to 15 % against the next one in the same
#: run, even at reference speed.
BUILDS = 2
#: Short phases are repeated within a run and reported as medians.
REPEATS = 11
SCAN_REPEATS = 11


def run(ctx: Context) -> Outcome:
    out = Outcome()
    setup_s = import_probe_s(ctx, ["repro.core.nvbench"], repeats=5)
    from repro.core.nvbench import build_nvbench, paper_scale_config

    recorder = None
    if ctx.trace:
        import build_trace

        plain = _measure(ctx, out, build_nvbench, paper_scale_config,
                         ctx.work / "untraced", builds=1, full=False)
        recorder = build_trace.install()

    # A traced run builds once, so its per-layer totals are per build.
    builds = 1 if ctx.trace else BUILDS
    with HostWatch(ctx) as watch:
        result = _measure(ctx, out, build_nvbench, paper_scale_config,
                          ctx.work / "built", builds=builds, full=True,
                          recorder=recorder)
    _check(ctx, out, result)

    build_s = median(t for t, _ in result["build"])
    pairs = result["pairs"]
    ctx.log(f"build: {pairs} pairs over {PREFIX_DATABASES} databases, "
            f"cold builds {[round(t, 3) for t, _ in result['build']]} s, "
            f"resume {[round(t, 3) for t, _ in result['resume']]} s, "
            f"scan {[round(t, 3) for t, _ in result['scan']]} s")
    watch.report(out)
    if recorder is None:
        resume_s = median(t for t, _ in result["resume"])
        scan_s = median(t for t, _ in result["scan"])
        # work: pairs written by a cold build; op: one clean resume.
        out.metric("setup_s", setup_s, "s")
        out.metric("peak_rss_mb", result["peak_rss_mb"], "MB")
        out.metric("work_per_s", pairs / at_reference(result["build"]),
                   "items/ref-s", raw=pairs / build_s)
        out.metric("op_p50_ms", 1000.0 * at_reference(result["resume"]),
                   "ref-ms", raw=1000.0 * resume_s)
        ctx.log(f"read-back: {pairs / at_reference(result['scan']):.1f} "
                f"pairs/ref-s ({pairs / scan_s:.1f} pairs/s unscaled), "
                f"median of {SCAN_REPEATS}")
    else:
        recorder.restore()
        build_trace.report(recorder, out, result, ctx)
        out.metric("bench.tracing_overhead", build_s / plain["build"][0][0],
                   "ratio")
        recorder.write(ctx.root / ".perfbench" / "trace-build.jsonl")
    return out


def _measure(ctx, out, build_nvbench, paper_scale_config, directory: Path,
             builds: int, full: bool, recorder=None) -> dict:
    """Time *builds* cold builds and, when *full*, the read-backs and
    resumes of the last one.

    Each phase keeps ``(seconds, reference factor)`` per repetition.
    The peak memory is read before the resumes: a clean resume holds
    more than the build (it preloads the whole journal and retrains the
    chart filter), and freed memory the process keeps would hide a
    change in what the build or the read-back holds.
    """
    from repro.core.nvbench import load_nvbench_dir

    def phase(name):
        if recorder is not None:
            recorder.phase = name

    config = paper_scale_config()
    timed = ctx.calibration.timed
    phase("build")
    targets = [directory.with_name(f"{directory.name}-{number}")
               for number in range(1, builds)] + [directory]
    result = {"build": [], "resume": [], "scan": [], "dir": directory,
              "others": targets[:-1]}
    for target in targets:
        result["pairs"], seconds, factor = timed(lambda: len(build_nvbench(
            config=config, stream=True, out=str(target),
            max_databases=PREFIX_DATABASES,
        ).pairs))
        result["build"].append((seconds, factor))
    if not full:
        return result

    manifest = json.loads((directory / "manifest.json").read_text())
    entries = manifest["databases"]
    order = [entry["name"] for entry in entries]
    random.Random(ctx.seed).shuffle(order)
    phase("scan")
    for _ in range(SCAN_REPEATS):
        result["scanned"], seconds, factor = timed(
            lambda: _scan(load_nvbench_dir(str(directory)), order, entries)
        )
        result["scan"].append((seconds, factor))
    result["peak_rss_mb"] = self_peak_rss_mb()

    files_before = _snapshot(directory)
    phase("resume")
    for _ in range(REPEATS):
        _, seconds, factor = timed(lambda: build_nvbench(
            config=config, stream=True, out=str(directory),
            max_databases=PREFIX_DATABASES, resume=True,
        ))
        result["resume"].append((seconds, factor))
        out.check(_snapshot(directory) == files_before,
                  "a clean resume rewrote a shard or corpus file")
    phase("")
    return result


def _snapshot(directory: Path) -> dict:
    """sha256 and mtime of every shard and corpus file."""
    state = {}
    for sub in ("shards", "corpus"):
        for path in sorted((directory / sub).iterdir()):
            state[str(path.relative_to(directory))] = (
                hashlib.sha256(path.read_bytes()).hexdigest(),
                path.stat().st_mtime_ns,
            )
    return state


def _digests(directory: Path) -> dict:
    return {name: digest for name, (digest, _) in _snapshot(directory).items()}


def _scan(bench, order, entries) -> int:
    """Read every pair lazily, database by database in *order*; returns
    how many were read.  No pair is kept, so the run's peak memory is
    the program's."""
    offsets = {}
    position = 0
    for entry in entries:
        offsets[entry["name"]] = (position, entry["pairs"])
        position += entry["pairs"]
    pairs = bench.pairs
    scanned = 0
    for name in order:
        start, count = offsets[name]
        for i in range(count):
            if pairs[start + i].vis is not None:
                scanned += 1
    return scanned


def _check(ctx, out, result) -> None:
    """Counts, hashes, round trips, Table 1 and sqlite3, on pairs read
    back lazily once more."""
    import sqlcheck
    import table1
    from repro.core.nvbench import load_nvbench_dir
    from repro.grammar.serialize import from_tokens, to_tokens
    from repro.storage.executor import ExecutionCache, ExecutionError, Executor

    directory, reported, scanned = result["dir"], result["pairs"], result["scanned"]
    digests = _digests(directory)
    for other in result["others"]:
        out.check(_digests(other) == digests,
                  "two cold builds of the same plan wrote different files")
    manifest = json.loads((directory / "manifest.json").read_text())
    entries = manifest["databases"]
    in_manifest = sum(entry["pairs"] for entry in entries)
    on_disk = 0
    for entry in entries:
        shard = directory / "shards" / f"{entry['name']}.jsonl"
        corpus = directory / "corpus" / f"{entry['name']}.json"
        data = shard.read_bytes()
        out.check(hashlib.sha256(data).hexdigest() == entry["shard_sha256"],
                  f"shard {entry['name']} does not hash to its manifest digest")
        out.check(hashlib.sha256(corpus.read_bytes()).hexdigest()
                  == entry["corpus_sha256"],
                  f"corpus {entry['name']} does not hash to its manifest digest")
        for line in data.decode("utf-8").splitlines():
            tokens = json.loads(line)["vis_tokens"]
            on_disk += 1
            out.check(to_tokens(from_tokens(tokens)) == tokens,
                      f"tokens of a {entry['name']} pair do not round-trip")
    out.check(reported == in_manifest == on_disk == scanned,
              f"pair counts differ: build reported {reported}, manifest "
              f"{in_manifest}, shard lines {on_disk}, read back {scanned}")

    bench = load_nvbench_dir(str(directory))
    databases = {entry["name"]: bench.databases[entry["name"]] for entry in entries}
    checked = failed = 0
    examples = []
    charts = {}
    for pair in bench.pairs:
        checked += 1
        charts.setdefault((pair.db_name, pair.vis))
        broken = table1.violations(pair.vis, databases[pair.db_name])
        if broken:
            failed += 1
            if len(examples) < 3:
                examples.append(f"{pair.db_name}: {broken}")
    out.attempted += checked
    out.failed += failed
    out.check(checked == on_disk, f"{checked} pairs checked against Table 1 "
                                  f"of {on_disk} on disk")
    ctx.log(f"table 1: {failed} of {checked} pairs break a type rule, "
            f"e.g. {examples}")

    oracle = sqlcheck.SqliteOracle(databases)
    cache = ExecutionCache()
    compared = agreed = 0
    for db_name, vis in charts:
        try:
            rows = Executor(databases[db_name], cache=cache).execute(vis).rows
        except ExecutionError as exc:
            out.check(False, f"an emitted chart does not execute: {exc}")
            continue
        verdict = oracle.check(db_name, vis, rows)
        if verdict is None:
            continue
        compared += 1
        agreed += verdict
        out.check(verdict, f"{db_name}: executor and sqlite3 disagree on a chart")
    oracle.close()
    ctx.log(f"sqlite3: {agreed} of {compared} distinct unbinned charts agree")
    out.check(compared > 0, "no chart was compared with sqlite3")
