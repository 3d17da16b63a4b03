"""``serve`` and ``serve_pool``: one client, one keep-alive connection.

Set-up (not timed) builds a fixed small benchmark, trains a ``copy``
checkpoint on part of it, and writes the corpus and checkpoint into the
run's directory.  Both are the same in every run; the seed draws the
schedule: which held-out questions are asked, as which kind, in which
order.  ``repro serve`` then starts three times in its own process
(``--workers 2`` for ``serve_pool``); ``setup_s`` is the median time
from launch to the first healthy reply.  The third server
answers the seeded schedule in a closed loop, one request in flight.
Every server is stopped with SIGINT, and the run checks that no server
process and no ``repro-weights-*`` segment outlives it.

After the timed phase the answers are checked against an in-process
``translate_batch`` of the same checkpoint, against the uncached answer
(for cache hits), against Table 1 (pipeline charts) and against sqlite3
(the Vega-Lite data of translate and beam answers).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    CAL_REF_MS, Context, HostWatch, Outcome, child_env, child_pids,
    describe_latency, median, proc_peak_rss_mb,
)

#: Benchmark the served checkpoint comes from: databases x pairs each,
#: and the seed of its corpus, split and weights.
FIXTURE_SEED = 7
DATABASES = 24
PAIRS_PER_DATABASE = 16
#: Pairs the checkpoint trains on; the rest supply the questions, so no
#: question was seen in training.
TRAIN_PAIRS = 600
#: The checkpoint is made as ``repro train`` makes one, with its default
#: sizes and settings (embed 56, hidden 96, batch 24, lr 5e-3, float32,
#: pretrained input embeddings); only the number of epochs is smaller,
#: to keep set-up short, and the split is the fixture's own.
EMBED_DIM, HIDDEN_DIM, BATCH_SIZE, LR = 56, 96, 24, 5e-3
EPOCHS = 4
#: Requests per schedule, by kind.  Nothing in the repository records
#: how the service is used, so the mix is a placeholder: an equal share
#: of each kind.  translate + pipeline questions are all distinct, and
#: translate alone outnumbers the encoder cache's 256 entries; every
#: repeat stays within the response cache's 1024.
PER_KIND = 264
COUNTS = dict.fromkeys(("translate", "cached", "beam", "pipeline"), PER_KIND)
#: How far back a repeat or a beam request may reach for its question.
RECENT = 32
LAUNCHES = 3
WORKERS = 2
#: The calibration kernel runs CAL_RUNS_SERVE times every CAL_EVERY
#: requests of the timed phase, between requests: a timer signal inside
#: a request would add its run to that request's latency.
CAL_EVERY = 5
CAL_RUNS_SERVE = 4
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
SEGMENT_DIR = Path("/dev/shm")
VOLATILE = ("cached", "latency_ms", "trace_id")


def run(ctx: Context) -> Outcome:
    out = Outcome()
    pool = ctx.workload == "serve_pool"
    fixture = _fixture(ctx)
    schedule = _schedule(ctx.seed, fixture["questions"])

    startups = []
    for _ in range(LAUNCHES - 1):
        server = Server(ctx, fixture, pool)
        try:
            startups.append(server.start())
        finally:
            server.stop(out)

    plain_wall = None
    if ctx.trace:
        server = Server(ctx, fixture, pool)
        try:
            server.start()
            plain_wall = _replay(ctx, server, schedule)[1]
        finally:
            server.stop(out)

    trace_path = None
    if ctx.trace:
        trace_path = ctx.work / ("trace" if pool else "trace.jsonl")
    server = Server(ctx, fixture, pool, trace_path)
    try:
        startups.append(server.start())
        with HostWatch(ctx) as watch:
            answers, wall, factor = _replay(ctx, server, schedule)
        peak = server.peak_rss_mb()
        metrics_doc = server.get("/metrics")
        health_doc = server.get("/healthz")
    finally:
        server.stop(out)

    latencies = _latencies(answers)
    for kind in ("translate", "cached_hit", "cached_miss", "beam", "pipeline"):
        ctx.log(describe_latency(kind, latencies[kind]))
    ctx.log(f"serve: {len(answers)} requests in {wall:.3f} s over one "
            f"connection; launches to healthy "
            f"{[round(seconds, 3) for seconds in startups]} s")
    watch.report(out)

    _check(ctx, out, fixture, answers)
    if not ctx.trace:
        # work: requests answered; op: a translate request.
        out.metric("setup_s", median(startups), "s")
        out.metric("peak_rss_mb", peak, "MB")
        out.metric("work_per_s", len(answers) / wall / factor,
                   "items/ref-s", raw=len(answers) / wall)
        translate = median(latencies["translate"])
        out.metric("op_p50_ms", translate * factor, "ref-ms", raw=translate)
        ctx.log("p50 at reference speed: " + ", ".join(
            f"{kind} {median(latencies[kind]) * factor:.3f} ref-ms"
            for kind in ("translate", "beam", "cached_hit", "pipeline")))
    else:
        import serve_trace

        serve_trace.report(ctx, out, trace_path, pool, metrics_doc,
                           health_doc, schedule)
        out.metric("bench.tracing_overhead", wall / plain_wall, "ratio")
    return out


# ----- set-up ---------------------------------------------------------------


def _fixture(ctx: Context) -> dict:
    """Corpus file, checkpoint file and the held-out question pool."""
    from repro.core.nvbench import NVBenchConfig, build_nvbench
    from repro.eval.harness import ExperimentConfig, build_model
    from repro.neural.data import build_dataset
    from repro.neural.persist import save_model
    from repro.neural.trainer import TrainConfig, train_model
    from repro.serve import normalize_question
    from repro.spider.corpus import CorpusConfig, save_corpus

    bench = build_nvbench(config=NVBenchConfig(
        corpus=CorpusConfig(num_databases=DATABASES,
                            pairs_per_database=PAIRS_PER_DATABASE,
                            row_scale=0.5, seed=FIXTURE_SEED),
        seed=FIXTURE_SEED,
    ))
    pairs = list(bench.pairs)
    random.Random(FIXTURE_SEED).shuffle(pairs)
    train_set = build_dataset(pairs[:TRAIN_PAIRS], bench.databases)
    config = ExperimentConfig(
        embed_dim=EMBED_DIM, hidden_dim=HIDDEN_DIM, model_seed=FIXTURE_SEED,
        train=TrainConfig(epochs=EPOCHS, batch_size=BATCH_SIZE, lr=LR,
                          seed=FIXTURE_SEED, dtype="float32"),
    )
    model = build_model("copy", train_set, config)
    train_model(model, train_set, None, config.train)
    corpus_path = ctx.work / "corpus.json"
    save_corpus(bench.corpus, str(corpus_path))
    model_path = save_model(model, train_set.in_vocab, train_set.out_vocab,
                            ctx.work / "copy.npz")
    trained = {normalize_question(pair.nl) for pair in pairs[:TRAIN_PAIRS]}
    questions = {}
    for pair in pairs[TRAIN_PAIRS:]:
        key = normalize_question(pair.nl)
        if key not in trained:
            questions.setdefault(key, (pair.nl, pair.db_name))
    needed = COUNTS["translate"] + COUNTS["pipeline"]
    if len(questions) < needed:
        raise RuntimeError(f"only {len(questions)} held-out questions; "
                           f"the schedule needs {needed}")
    return {"corpus": corpus_path, "model": Path(model_path),
            "databases": bench.databases, "questions": list(questions.values())}


def _schedule(seed: int, questions: list) -> List[dict]:
    """The seeded request sequence: kinds interleaved at random, each
    repeat and beam drawing its question from recent translate requests."""
    rng = random.Random(seed)
    pool = list(questions)
    rng.shuffle(pool)
    left = dict(COUNTS)
    asked: List[dict] = []
    beamed = set()
    schedule = []
    while any(left.values()):
        kinds = [k for k, n in left.items() if n]
        if not asked:
            kinds = [k for k in kinds if k not in ("cached", "beam")]
        fresh = [i for i in range(len(asked)) if i not in beamed]
        if not fresh:
            kinds = [k for k in kinds if k != "beam"]
        kind = rng.choices(kinds, weights=[left[k] for k in kinds])[0]
        left[kind] -= 1
        if kind in ("translate", "pipeline"):
            question, db = pool.pop()
        if kind == "translate":
            body = {"question": question, "db": db, "format": "vega-lite"}
            asked.append(body)
        elif kind == "cached":
            body = dict(rng.choice(asked[-RECENT:]))
        elif kind == "beam":
            recent = [i for i in fresh if i >= len(asked) - RECENT] or fresh[-1:]
            index = rng.choice(recent)
            beamed.add(index)
            body = {**asked[index], "beam_width": 4, "candidates": 3}
        else:
            body = {"question": question, "k": 3, "judge": True}
        schedule.append({"kind": kind, "path": "/pipeline" if kind == "pipeline"
                         else "/translate", "body": body})
    return schedule


# ----- the server process -----------------------------------------------------


class Server:
    """One ``repro serve`` process (front plus workers for the pool)."""

    def __init__(self, ctx: Context, fixture: dict, pool: bool,
                 trace: Optional[Path] = None):
        self.ctx = ctx
        self.command = [
            sys.executable, "-m", "repro", "serve",
            "--corpus", str(fixture["corpus"]),
            "--model", f"copy={fixture['model']}", "--default", "copy",
            "--host", "127.0.0.1", "--port", "0",
        ]
        if pool:
            self.command += ["--workers", str(WORKERS)]
        if trace is not None:
            self.command += ["--trace", str(trace)]
        self.pool = pool
        self.process: Optional[subprocess.Popen] = None
        self.children: List[int] = []
        self.conn: Optional[http.client.HTTPConnection] = None
        self.output: List[str] = []
        self._port: Optional[int] = None
        self._ready = threading.Event()
        self._segments_before = _segments()

    def start(self) -> float:
        """Launch; returns seconds until the first healthy reply."""
        env = child_env(self.ctx.root)
        env["PYTHONUNBUFFERED"] = "1"
        started = time.perf_counter()
        self.process = subprocess.Popen(
            self.command, cwd=self.ctx.work, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        reader = threading.Thread(target=self._read_output, daemon=True)
        reader.start()
        if not self._ready.wait(START_TIMEOUT) or self._port is None:
            raise RuntimeError("server did not start:\n" + "".join(self.output))
        while True:
            try:
                if self.get("/healthz").get("status") == "ok":
                    break
            except (OSError, http.client.HTTPException):
                self.conn = None
            if time.perf_counter() - started > START_TIMEOUT:
                raise RuntimeError("server never became healthy")
            time.sleep(0.005)
        elapsed = time.perf_counter() - started
        self.children = child_pids(self.process.pid)
        return elapsed

    def _read_output(self) -> None:
        for line in self.process.stdout:
            self.output.append(line)
            match = re.search(r"http://[\d.]+:(\d+)", line)
            if match and self._port is None:
                self._port = int(match.group(1))
                self._ready.set()
        self._ready.set()

    def request(self, method: str, path: str, body: Optional[dict] = None):
        """One exchange on the kept-alive connection: (status, document)."""
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self._port,
                                                   timeout=60)
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def get(self, path: str) -> dict:
        return self.request("GET", path)[1]

    def workers(self) -> List[int]:
        """Forked decode workers: children running the front's command."""
        own = Path(f"/proc/{self.process.pid}/cmdline").read_bytes()
        return [pid for pid in self.children
                if _cmdline(pid) == own]

    def peak_rss_mb(self) -> float:
        pids = [self.process.pid] + (self.workers() if self.pool else [])
        return sum(proc_peak_rss_mb(pid) for pid in pids)

    def stop(self, out: Outcome) -> None:
        """SIGINT, wait, then check nothing it started outlives it."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.process is None:
            return
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            out.check(False, "server did not exit on SIGINT")
            self.process.kill()
            self.process.wait()
        deadline = time.monotonic() + STOP_TIMEOUT
        alive = self.children
        while alive and time.monotonic() < deadline:
            alive = [pid for pid in alive if _alive(pid)]
            time.sleep(0.05)
        for pid in alive:
            out.check(False, f"server child {pid} outlived the server")
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        leaked = _segments() - self._segments_before
        out.check(not leaked, f"shared-memory segments left behind: {leaked}")
        self.process = None


def _cmdline(pid: int) -> bytes:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return b""


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def _segments() -> set:
    if not SEGMENT_DIR.is_dir():
        return set()
    return {p.name for p in SEGMENT_DIR.iterdir()
            if p.name.startswith("repro-weights-")}


# ----- the timed phase -----------------------------------------------------


def _replay(ctx: Context, server: Server, schedule: List[dict]):
    """Send the schedule in a closed loop.

    Returns ``(answers, wall seconds, reference factor)``.  Every
    ``CAL_EVERY`` requests the calibration kernel runs a few times,
    between requests and outside the wall time.
    """
    answers = []
    kernel = []
    paused = 0.0
    started = time.perf_counter()
    for index, item in enumerate(schedule):
        if index % CAL_EVERY == 0:
            pause = time.perf_counter()
            kernel += ctx.calibration.measure(CAL_RUNS_SERVE)
            paused += time.perf_counter() - pause
        sent = time.perf_counter()
        status, document = server.request("POST", item["path"], item["body"])
        answers.append({**item, "status": status, "doc": document,
                        "ms": (time.perf_counter() - sent) * 1000.0})
    wall = time.perf_counter() - started - paused
    return answers, wall, CAL_REF_MS / statistics.fmean(kernel)


def _latencies(answers) -> Dict[str, List[float]]:
    found: Dict[str, List[float]] = {
        "translate": [], "cached_hit": [], "cached_miss": [], "beam": [],
        "pipeline": [],
    }
    for answer in answers:
        kind = answer["kind"]
        if kind == "cached":
            kind = "cached_hit" if answer["doc"].get("cached") else "cached_miss"
        found[kind].append(answer["ms"])
    return found


# ----- checks ----------------------------------------------------------------


_REQUIRED = {
    "translate": ("vis", "tokens", "spec", "cached"),
    "cached": ("vis", "tokens", "spec", "cached"),
    "beam": ("vis", "tokens", "spec", "candidates"),
    "pipeline": ("db", "charts", "judge", "candidates"),
}


def _check(ctx: Context, out: Outcome, fixture: dict, answers) -> None:
    import sqlcheck
    import table1
    from repro.grammar.ast_nodes import VisQuery
    from repro.grammar.serialize import from_tokens
    from repro.neural.persist import load_model
    from repro.serve import DecodeConfig, render_spec, translate_batch
    from repro.storage.executor import ExecutionError

    databases = fixture["databases"]
    out.attempted += len(answers)
    for answer in answers:
        doc = answer["doc"]
        ok = answer["status"] == 200 and all(
            field in doc for field in _REQUIRED[answer["kind"]]
        )
        out.failed += not ok
        out.check(ok, f"{answer['kind']} answered {answer['status']}: "
                      f"{str(doc)[:200]}")

    # The server decodes one request at a time, so the reference does
    # too: float32 sums round differently at other batch sizes.
    model, in_vocab, out_vocab = load_model(fixture["model"])
    first: Dict[str, dict] = {}
    decodes = {"translate": DecodeConfig(), "beam": DecodeConfig(4, 3)}
    for answer in answers:
        kind, doc = answer["kind"], answer["doc"]
        if kind not in decodes or answer["status"] != 200:
            continue
        database = databases[answer["body"]["db"]]
        result = translate_batch(
            model, in_vocab, out_vocab,
            [(answer["body"]["question"], database)], decode=decodes[kind],
        )[0]
        try:
            spec = json.loads(json.dumps(
                render_spec(result, database, "vega-lite")))
        except ExecutionError:
            spec = None  # the server reports it as render_error
        expected = {**result.to_json(), "spec": spec}
        out.check(all(doc.get(k) == v for k, v in expected.items()),
                  f"{kind} answer differs from in-process translate_batch "
                  f"for {doc.get('question')!r}")
        first.setdefault(_key(answer["body"]), doc)

    for answer in answers:
        if answer["kind"] == "cached" and answer["status"] == 200:
            original = first.get(_key(answer["body"]))
            out.check(original is not None and _strip(answer["doc"])
                      == _strip(original),
                      "a repeated question got a different answer")

    oracle = sqlcheck.SqliteOracle(databases)
    compared = agreed = judged = 0
    for answer in answers:
        doc = answer["doc"]
        if answer["status"] != 200:
            continue
        if answer["kind"] == "pipeline":
            database = databases[doc["db"]]
            out.check(len(doc["judge"]) == len(doc["charts"]) and all(
                "dimensions" in verdict for verdict in doc["judge"]),
                "a pipeline chart carries no judge verdict")
            for text in doc["charts"]:
                vis = from_tokens(_tokens(text))
                broken = table1.violations(vis, database)
                judged += 1
                out.check(not broken, f"pipeline chart {text!r} breaks "
                                      f"Table 1: {broken}")
            continue
        if answer["kind"] == "cached" or doc.get("spec") is None:
            continue
        vis = from_tokens(_tokens(doc["vis"]))
        values = doc["spec"]["data"]["values"]
        arity = len(vis.primary_core.select)
        if not isinstance(vis, VisQuery) or any(len(v) != arity for v in values):
            continue
        rows = [tuple(v.values()) for v in values]
        verdict = oracle.check(doc["db"], vis, rows)
        if verdict is None:
            continue
        compared += 1
        agreed += verdict
        out.check(verdict, f"chart data of {doc['vis']!r} disagrees with sqlite3")
    oracle.close()
    ctx.log(f"sqlite3: {agreed} of {compared} unbinned served charts agree")
    ctx.log(f"pipeline: {judged} charts checked against Table 1")
    out.check(compared > 0, "no served chart was compared with sqlite3")
    out.check(judged > 0, "no pipeline answer returned a chart")


def _key(body: dict) -> str:
    return json.dumps(body, sort_keys=True)


def _strip(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k not in VOLATILE}


_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|\S+')


def _tokens(text: str) -> List[str]:
    """Split a canonical VIS text back into tokens (quoted values whole)."""
    return _TOKEN.findall(text)
