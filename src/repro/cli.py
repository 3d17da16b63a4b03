"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``build-corpus``     build a Spider-like NL2SQL corpus and save it as JSON
``build-benchmark``  run the full synthesizer over a corpus; save the pairs
``stats``            print Table-2/Table-3 style statistics for a benchmark
``train``            train a seq2vis variant on a benchmark; save the model
``translate``        translate an NL question with a saved model
``pipeline``         staged copilot: route → generate → verify → execute → repair
``judge``            judged evaluation: per-scenario × per-dimension accuracy
``serve``            run the batched HTTP inference service
``trace``            summarize a JSONL span export written by ``--trace``

``build-benchmark``, ``train``, ``translate``, ``pipeline``, and ``serve`` all accept
``--trace PATH`` to export a span tree of the run as JSONL (see
``docs/OBSERVABILITY.md``); ``trace summarize PATH`` renders it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.nvbench import (
    NVBenchConfig,
    build_nvbench,
    build_profile,
    load_nvbench_dir,
    load_nvbench_pairs,
    paper_scale_config,
    save_nvbench_pairs,
)
from repro.spider.corpus import (
    CorpusConfig,
    build_spider_corpus,
    load_corpus,
    save_corpus,
)


def _open_tracer(path: Optional[str], spans=None):
    """``(tracer, exporter)`` for ``--trace PATH``; ``(None, None)`` off.

    A :class:`~repro.obs.SpanAggregator` *spans* turns tracing on even
    without ``--trace`` and forwards to the JSONL file when there is one.
    The caller must ``exporter.close()`` (after the traced work) so the
    JSONL file is flushed before the command exits.
    """
    if not path and spans is None:
        return None, None
    from repro.obs import JsonlExporter, Tracer

    exporter = JsonlExporter(path) if path else None
    if spans is not None:
        spans.downstream = exporter
    return Tracer(exporter=exporter if spans is None else spans), exporter


def _close_tracer(exporter, path: Optional[str]) -> None:
    if exporter is not None:
        exporter.close()
        print(f"wrote {exporter.exported} spans to {path} "
              f"(render with: python -m repro trace summarize {path})")


def _corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--databases", type=int, default=40,
                        help="number of databases to generate")
    parser.add_argument("--pairs-per-db", type=int, default=16,
                        help="(NL, SQL) pairs per database")
    parser.add_argument("--row-scale", type=float, default=0.5,
                        help="row-count scale factor")
    parser.add_argument("--seed", type=int, default=7)


def _cmd_build_corpus(args: argparse.Namespace) -> int:
    config = CorpusConfig(
        num_databases=args.databases,
        pairs_per_database=args.pairs_per_db,
        row_scale=args.row_scale,
        seed=args.seed,
    )
    corpus = build_spider_corpus(config)
    save_corpus(corpus, args.out)
    print(f"wrote {len(corpus.pairs)} (NL, SQL) pairs over "
          f"{len(corpus.databases)} databases to {args.out}")
    return 0


def _cmd_build_benchmark(args: argparse.Namespace) -> int:
    # --out ending in .json keeps the classic single-file build; any
    # other path is a shard directory (docs/CORPUS.md).
    sharded = not args.out.endswith(".json")
    stream = args.stream or args.paper_scale
    if args.resume and not sharded:
        print("--resume needs a shard directory --out (not a .json file)",
              file=sys.stderr)
        return 2
    if stream and args.corpus:
        print("--stream/--paper-scale generate their own corpus; "
              "drop --corpus", file=sys.stderr)
        return 2
    corpus = load_corpus(args.corpus) if args.corpus else None
    if args.paper_scale:
        config = paper_scale_config(use_cache=not args.no_cache,
                                    seed=args.seed)
    else:
        config = NVBenchConfig(
            corpus=CorpusConfig(
                num_databases=args.databases,
                pairs_per_database=args.pairs_per_db,
                row_scale=args.row_scale,
                seed=args.seed,
            ),
            use_cache=not args.no_cache,
            seed=args.seed,
        )
    from repro.obs import SpanAggregator

    # The build is always traced: its spans feed the shard counts below
    # and the --profile report.
    spans = SpanAggregator()
    tracer, exporter = _open_tracer(args.trace, spans)
    bench = build_nvbench(
        corpus=corpus, config=config, workers=args.workers, tracer=tracer,
        out=args.out if sharded else None,
        resume=args.resume, stream=stream,
        max_databases=args.max_databases,
    )
    _close_tracer(exporter, args.trace)
    profile = build_profile(spans)
    if sharded:
        counters = profile["counters"]
        print(f"wrote {len(bench.pairs)} (NL, VIS) pairs over "
              f"{len(bench.databases)} database shards to {args.out} "
              f"(built {counters.get('shards_built', 0)}, "
              f"skipped clean {counters.get('shards_skipped_clean', 0)})")
    else:
        if not args.corpus:
            save_corpus(bench.corpus, args.out + ".corpus.json")
            print(f"wrote corpus to {args.out}.corpus.json")
        save_nvbench_pairs(bench, args.out)
        print(f"wrote {len(bench.pairs)} (NL, VIS) pairs "
              f"({len(bench.distinct_vis)} distinct vis) to {args.out}")
    # Pairs are saved first so a bad --profile path cannot lose the build.
    if args.profile:
        Path(args.profile).write_text(json.dumps(profile, indent=2))
        print(f"wrote build profile to {args.profile}")
    return 0


def _load_bench(args: argparse.Namespace):
    """The benchmark named by --benchmark DIR or --corpus/--pairs.

    Returns ``None`` (with a message on stderr) when the flags don't add
    up; shard directories load lazily, so stats/training over a
    paper-scale benchmark never materialize it whole.
    """
    if args.benchmark:
        if args.corpus or args.pairs:
            print("--benchmark replaces --corpus/--pairs; pick one",
                  file=sys.stderr)
            return None
        return load_nvbench_dir(args.benchmark)
    if not (args.corpus and args.pairs):
        print("need either --benchmark DIR or both --corpus and --pairs",
              file=sys.stderr)
        return None
    corpus = load_corpus(args.corpus)
    return load_nvbench_pairs(corpus, args.pairs)


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.stats.dataset_stats import dataset_summary
    from repro.stats.nl_stats import nl_vis_table

    bench = _load_bench(args)
    if bench is None:
        return 2
    summary = dataset_summary(bench.corpus)
    print(f"databases: {summary.n_databases}  tables: {summary.n_tables}  "
          f"domains: {summary.n_domains}")
    print(f"columns: {summary.n_columns} (avg {summary.avg_columns:.2f})  "
          f"rows: {summary.n_rows} (avg {summary.avg_rows:.1f})")
    print("column types:",
          {k: f"{v:.1%}" for k, v in summary.column_type_fractions().items()})
    print()
    for row in nl_vis_table(bench):
        print(f"{row.vis_type:17s} vis={row.n_vis:5d} pairs={row.n_pairs:6d} "
              f"avg words={row.avg_words:5.1f} BLEU={row.avg_bleu:.3f}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.eval.harness import (
        ExperimentConfig, build_model, evaluate_model, make_datasets,
    )
    from repro.neural.persist import save_model
    from repro.neural.trainer import TrainConfig, train_model, train_profile
    from repro.obs import SpanAggregator

    bench = _load_bench(args)
    if bench is None:
        return 2
    config = ExperimentConfig(
        embed_dim=args.embed_dim,
        hidden_dim=args.hidden_dim,
        train=TrainConfig(
            epochs=args.epochs, batch_size=args.batch_size,
            lr=args.lr, patience=args.patience, verbose=True,
            dtype=args.dtype,
        ),
    )
    train_set, val_set, test_set = make_datasets(bench, config)
    model = build_model(args.variant, train_set, config)
    print(f"training seq2vis ({args.variant}, {args.dtype}) "
          f"on {len(train_set)} pairs ...")
    spans = SpanAggregator(keep=("epoch",)) if args.profile else None
    tracer, exporter = _open_tracer(args.trace, spans)
    result = train_model(model, train_set, val_set, config.train,
                         tracer=tracer)
    _close_tracer(exporter, args.trace)
    report = evaluate_model(model, test_set, bench)
    print(f"tree accuracy {report.tree_accuracy:.1%}  "
          f"result accuracy {report.result_accuracy:.1%}")
    written = save_model(model, train_set.in_vocab, train_set.out_vocab,
                         args.out, optimizer=result.optimizer)
    print(f"saved model to {written}")
    # Model first so a bad --profile path cannot lose the training run.
    if spans is not None:
        profile = train_profile(spans)
        Path(args.profile).write_text(json.dumps(profile, indent=2))
        print(f"wrote train profile to {args.profile} "
              f"({profile['tokens_per_sec']:.0f} tokens/sec)")
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    from repro.neural.persist import load_model
    from repro.serve import DecodeConfig, render_spec, translate_question

    corpus = load_corpus(args.corpus)
    if args.database not in corpus.databases:
        print(f"unknown database {args.database!r}; choices: "
              f"{sorted(corpus.databases)[:10]} ...", file=sys.stderr)
        return 2
    database = corpus.databases[args.database]
    try:
        decode = DecodeConfig(
            beam_width=args.beam_width, num_candidates=args.candidates
        )
    except ValueError as exc:
        print(f"bad decode options: {exc}", file=sys.stderr)
        return 2
    model, in_vocab, out_vocab = load_model(args.model, precision=args.precision)

    from repro.obs import traced

    tracer, exporter = _open_tracer(args.trace)
    with traced(tracer, "translate", db=args.database, format=args.format,
                decode=decode.cache_tag()):
        result = translate_question(
            model, in_vocab, out_vocab, args.question, database,
            tracer=tracer, decode=decode,
        )
        spec = None
        if result.tree is not None and args.format != "text":
            with traced(tracer, "render", format=args.format):
                spec = render_spec(result, database, args.format)
    _close_tracer(exporter, args.trace)
    print("predicted tokens:", " ".join(result.tokens))
    if result.candidates:
        for rank, candidate in enumerate(result.candidates):
            label = candidate.vis or f"({candidate.error})"
            flags = _candidate_flags(candidate, database)
            print(f"candidate {rank}: score={candidate.score:+.4f} {label}{flags}")
    if result.tree is None:
        print(f"(not a parseable vis tree: {result.error})")
        return 0
    print("predicted tree :", result.vis_text)
    if spec is not None:
        if isinstance(spec, str):
            print(spec)
        else:
            print(json.dumps(spec, indent=2, default=str))
    return 0


def _candidate_flags(candidate, database) -> str:
    """Table-1 legality marker for one ranked beam candidate."""
    from repro.core import validate_chart
    from repro.grammar.ast_nodes import VisQuery
    from repro.grammar.serialize import from_tokens

    try:
        tree = from_tokens(candidate.tokens)
    except Exception:
        return "  [unparseable]"
    if not isinstance(tree, VisQuery):
        return "  [not a vis]"
    validation = validate_chart(tree, database)
    if validation.ok:
        return ""
    return f"  [{validation.status}: {','.join(validation.codes())}]"


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.pipeline import Budget, Generator, Pipeline
    from repro.serve import BaselineTranslator

    corpus = load_corpus(args.corpus)
    if args.database and args.database not in corpus.databases:
        print(f"unknown database {args.database!r}; choices: "
              f"{sorted(corpus.databases)[:10]} ...", file=sys.stderr)
        return 2
    if args.model:
        from repro.serve import NeuralTranslator

        translator = NeuralTranslator.from_npz(args.model)
    else:
        translator = BaselineTranslator.from_name(args.baseline)
    try:
        budget = Budget(
            total_ms=args.budget_ms,
            stage_ms=args.stage_ms,
            max_rows=args.max_rows,
            k=args.k,
            repair=not args.no_repair,
        )
    except ValueError as exc:
        print(f"bad budget: {exc}", file=sys.stderr)
        return 2

    tracer, exporter = _open_tracer(args.trace)
    pipeline = Pipeline(
        corpus.databases, Generator(translator), budget=budget, tracer=tracer
    )
    result = pipeline.run(args.question, args.database or None)
    _close_tracer(exporter, args.trace)

    if args.json:
        print(json.dumps(result.to_json(), indent=2, default=str))
        return 0

    routed = "routed to" if result.routed else "database"
    print(f"{routed} {result.db_name}"
          + (f" (score {result.routes[0].score:.2f})" if result.routes else ""))
    for candidate in result.candidates:
        marks = []
        if candidate.repaired:
            marks.append("repaired: " + "; ".join(candidate.repairs))
        if candidate.violations:
            marks.append(",".join(v.code for v in candidate.violations))
        if candidate.execution is not None and candidate.execution.ok:
            rows = candidate.execution.rows
            marks.append(f"{rows} rows" + (" (truncated)" if
                                           candidate.execution.truncated else ""))
        suffix = f"  [{' | '.join(marks)}]" if marks else ""
        label = candidate.vis_text or f"({candidate.error})"
        print(f"  {candidate.status:9s} score={candidate.score:+.3f} "
              f"{label}{suffix}")
    print(f"charts: {len(result.charts)} valid"
          + (" (ambiguous question)" if result.ambiguous else ""))
    timings = "  ".join(
        f"{name}={ms:.1f}ms" for name, ms in sorted(result.stage_timings.items())
    )
    print(f"stages: {timings}")
    if result.partial:
        print(f"budget exhausted during {result.timed_out!r}; partial result")
    return 0


def _cmd_judge(args: argparse.Namespace) -> int:
    from repro.eval import (
        format_matrix,
        judge_matrix,
        run_scenario,
        scenario_names,
    )

    bench = _load_bench(args)
    if bench is None:
        return 2
    names = args.scenario or scenario_names()
    unknown = sorted(set(names) - set(scenario_names()))
    if unknown:
        print(f"unknown scenario(s) {unknown}; choices: {scenario_names()}",
              file=sys.stderr)
        return 2
    if args.model:
        from repro.serve import NeuralTranslator

        translator = NeuralTranslator.from_npz(args.model)
    else:
        from repro.serve import BaselineTranslator

        translator = BaselineTranslator.from_name(args.baseline)

    tracer, exporter = _open_tracer(args.trace)
    reports = [
        run_scenario(
            name, bench, translator=translator, k=args.k,
            max_examples=args.max_examples, tracer=tracer,
        )
        for name in names
    ]
    _close_tracer(exporter, args.trace)

    matrix = judge_matrix(reports)
    if args.out:
        merged = {}
        if os.path.exists(args.out):
            with open(args.out) as handle:
                merged = json.load(handle)
        merged["judged"] = matrix
        with open(args.out, "w") as handle:
            json.dump(merged, handle, indent=2, sort_keys=True)
        print(f"merged judged matrix into {args.out}")
    if args.json:
        print(json.dumps(
            {**matrix, "reports": [report.to_json() for report in reports]},
            indent=2, default=str,
        ))
        return 0
    print(format_matrix(reports))
    for report in reports:
        repaired = report.counters.get("repaired_total", 0)
        born = report.counters.get("born_legal_total", 0)
        print(f"{report.scenario}: {len(report.examples)} examples, "
              f"{repaired} repaired-to-legal vs {born} born-legal answers")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: one :class:`~repro.serve.InferenceServer`, or with
    ``--workers N`` (N > 1) a :class:`~repro.serve.WorkerPool` front over
    N forked decode workers.

    Both shapes take models through the same ``load_npz`` /
    ``register_baselines`` / ``set_default`` calls and run one
    start/serve/drain coroutine.  Under ``--workers N`` the ``--trace``
    argument names a **directory**: the front writes ``front.jsonl`` and
    each worker ``worker-N.jsonl``, and ``repro trace summarize DIR``
    stitches them into one tree.
    """
    import asyncio

    from repro.serve import (
        InferenceServer, ModelRegistry, PoolConfig, ServerConfig,
        UnknownModelError, WorkerPool,
    )

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    checkpoints = {}
    for spec in args.model or []:
        name, _, path = spec.partition("=")
        if not name or not path:
            print(f"--model wants NAME=PATH, got {spec!r}", file=sys.stderr)
            return 2
        checkpoints[name] = path
    corpus = load_corpus(args.corpus)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch_size,
        flush_interval=args.flush_ms / 1000.0,
        max_queue_depth=args.queue_depth,
        request_timeout=args.timeout,
        cache_size=args.cache_size,
        encoder_cache_size=args.encoder_cache_size,
        default_format=args.format,
        default_beam_width=args.beam_width,
    )
    pool = args.workers > 1
    trace = args.trace
    if pool and trace:  # a directory: front.jsonl plus worker-N.jsonl
        trace = str(Path(trace) / "front.jsonl")
    tracer, exporter = _open_tracer(trace)
    if pool:
        server = registry = WorkerPool(
            corpus.databases,
            PoolConfig(
                workers=args.workers,
                host=args.host,
                port=args.port,
                worker=config,
                warm=args.warm,
                trace_dir=args.trace,
            ),
            tracer=tracer,
        )
    else:
        registry = ModelRegistry()
        server = InferenceServer(
            registry, corpus.databases, config=config, tracer=tracer
        )

    async def _main() -> int:
        # Every exit, Ctrl-C included, drains: the pool's workers stop
        # and its shared weight segments are unlinked.
        try:
            for name, path in checkpoints.items():
                registry.load_npz(name, path, precision=args.precision)
            if args.baselines or not checkpoints:
                registry.register_baselines()
            if args.default:
                try:
                    registry.set_default(args.default)
                except UnknownModelError as exc:
                    print(f"--default: {exc.args[0]}", file=sys.stderr)
                    return 2
            if args.warm and not pool:  # pool workers warm themselves
                for name, seconds in registry.warm(corpus.databases).items():
                    print(f"warmed {name} in {seconds * 1000:.1f} ms")
            await server.start()
            print(f"serving on {server.url} with {args.workers} "
                  f"decode worker(s) (batch<={config.max_batch_size} per "
                  f"worker, flush {args.flush_ms}ms, "
                  f"queue {config.max_queue_depth})")
            await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass
        finally:
            await server.shutdown()
        return 0

    try:
        status = asyncio.run(_main())
    except KeyboardInterrupt:
        # Pre-3.11 asyncio delivers Ctrl-C as a plain KeyboardInterrupt
        # (after draining through _main's finally); 3.11+ cancels _main
        # instead, which returns here normally.
        status = 0
    _close_tracer(exporter, trace)
    if status == 0:
        print("drained; bye")
    return status


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.obs import load_spans, summarize

    try:
        records = load_spans(args.path)
    except FileNotFoundError:
        print(f"no such span export: {args.path}", file=sys.stderr)
        return 2
    if not records:
        print(f"no spans in {args.path}", file=sys.stderr)
        return 1
    try:
        print(summarize(
            records,
            trace_id=args.trace_id,
            min_ms=args.min_ms,
            max_depth=args.max_depth,
            max_traces=args.max_traces,
        ))
    except BrokenPipeError:
        # the reader (head, a pager) closed the pipe; hand it a devnull
        # stdout so the interpreter's exit flush stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="nvBench reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-corpus", help="generate a Spider-like corpus")
    _corpus_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_corpus)

    p = sub.add_parser("build-benchmark", help="synthesize an nvBench-style benchmark")
    _corpus_args(p)
    p.add_argument("--corpus", help="reuse a saved corpus JSON")
    p.add_argument("--out", required=True,
                   help="a .json file for the classic single-file build, "
                        "or a directory for the sharded, resumable build "
                        "(docs/CORPUS.md)")
    p.add_argument("--workers", type=int, default=1,
                   help="shard the build by database over N processes")
    p.add_argument("--resume", action="store_true",
                   help="reuse clean shards from a previous build to the "
                        "same --out directory (content keys re-verified)")
    p.add_argument("--stream", action="store_true",
                   help="generate the corpus one database at a time "
                        "(bounded memory; requires a directory --out)")
    p.add_argument("--paper-scale", action="store_true",
                   help="the paper-shape streamed build: 153 databases, "
                        ">=25k pairs (implies --stream)")
    p.add_argument("--max-databases", type=int,
                   help="cap the streamed database count (CI smoke runs)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the execution-result cache")
    p.add_argument("--profile",
                   help="write a JSON build profile (stage timings, cache stats)")
    p.add_argument("--trace",
                   help="write a JSONL span export of the build (one trace: "
                        "stages, shards, per-pair synthesis)")
    p.set_defaults(func=_cmd_build_benchmark)

    p = sub.add_parser("stats", help="print benchmark statistics")
    p.add_argument("--benchmark",
                   help="sharded benchmark directory written by "
                        "build-benchmark --out DIR (replaces "
                        "--corpus/--pairs; loads lazily)")
    p.add_argument("--corpus")
    p.add_argument("--pairs")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("train", help="train a seq2vis model")
    p.add_argument("--benchmark",
                   help="sharded benchmark directory written by "
                        "build-benchmark --out DIR (replaces "
                        "--corpus/--pairs; loads lazily)")
    p.add_argument("--corpus")
    p.add_argument("--pairs")
    p.add_argument("--variant", choices=("basic", "attention", "copy"),
                   default="attention")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=24)
    p.add_argument("--lr", type=float, default=5e-3)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--embed-dim", type=int, default=56)
    p.add_argument("--hidden-dim", type=int, default=96)
    p.add_argument("--dtype", choices=("float32", "float64"),
                   default="float32",
                   help="training dtype (float64 reproduces the reference "
                        "numerics exactly)")
    p.add_argument("--profile",
                   help="write a JSON training profile (tokens/sec, "
                        "step-time histogram, per-epoch breakdown)")
    p.add_argument("--trace",
                   help="write a JSONL span export of the run (train → "
                        "epoch → step/evaluate spans)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("translate", help="translate one NL question")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--database", required=True)
    p.add_argument("--format", default="text",
                   choices=("text", "vega-lite", "echarts", "plotly",
                            "ascii", "ggplot"),
                   help="also emit the rendered spec in this backend format")
    p.add_argument("--beam-width", type=int, default=1,
                   help="beam search width (1 = greedy decode)")
    p.add_argument("--candidates", type=int, default=1,
                   help="print this many ranked beam candidates "
                        "(requires --beam-width > 1)")
    p.add_argument("--precision",
                   choices=("float32", "float16", "int8", "float64"),
                   help="re-store the loaded weights at this precision "
                        "(int8/float16 shrink memory, see "
                        "docs/PERFORMANCE.md)")
    p.add_argument("--trace",
                   help="write a JSONL span export of the translation "
                        "(encode/decode/parse/render)")
    p.add_argument("question")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser(
        "pipeline",
        help="staged copilot: route -> generate -> verify -> execute -> repair",
    )
    p.add_argument("--corpus", required=True,
                   help="corpus JSON with the candidate databases")
    p.add_argument("--model",
                   help="saved seq2vis .npz to generate with "
                        "(default: the --baseline rule system)")
    p.add_argument("--baseline", default="deepeye",
                   choices=("deepeye", "nl4dv"),
                   help="rule-based generator when no --model is given")
    p.add_argument("--database",
                   help="pin the target database (omit to let the route "
                        "stage pick one)")
    p.add_argument("--k", type=int, default=3,
                   help="ranked candidate charts to return")
    p.add_argument("--budget-ms", type=float,
                   help="whole-request wall-clock budget in milliseconds")
    p.add_argument("--stage-ms", type=float,
                   help="per-stage wall-clock budget in milliseconds")
    p.add_argument("--max-rows", type=int, default=1000,
                   help="truncate executed results past this many rows")
    p.add_argument("--no-repair", action="store_true",
                   help="report near-miss candidates instead of repairing")
    p.add_argument("--json", action="store_true",
                   help="print the full result as JSON")
    p.add_argument("--trace",
                   help="write a JSONL span export (one span per stage: "
                        "route/generate/verify/execute/repair)")
    p.add_argument("question")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser(
        "judge",
        help="judged evaluation: per-scenario x per-dimension accuracy matrix",
    )
    p.add_argument("--benchmark",
                   help="sharded benchmark directory written by "
                        "build-benchmark --out DIR (replaces "
                        "--corpus/--pairs; loads lazily)")
    p.add_argument("--corpus")
    p.add_argument("--pairs")
    p.add_argument("--scenario", action="append",
                   help="scenario to judge (repeatable; default: all "
                        "registered — see docs/EVALUATION.md)")
    p.add_argument("--model",
                   help="saved seq2vis .npz to judge "
                        "(default: the --baseline rule system)")
    p.add_argument("--baseline", default="deepeye",
                   choices=("deepeye", "nl4dv"),
                   help="rule-based generator when no --model is given")
    p.add_argument("--k", type=int, default=3,
                   help="pipeline candidates ranked per question")
    p.add_argument("--max-examples", type=int,
                   help="judge at most this many examples per scenario "
                        "(multi-turn sessions are never cut open)")
    p.add_argument("--json", action="store_true",
                   help="print the matrix plus per-example verdicts as JSON")
    p.add_argument("--out",
                   help="merge the matrix into this JSON file under the "
                        "'judged' key (the BENCH_eval.json shape)")
    p.add_argument("--trace",
                   help="write a JSONL span export (pipeline spans for "
                        "every judged question)")
    p.set_defaults(func=_cmd_judge)

    p = sub.add_parser("serve", help="run the HTTP inference service")
    p.add_argument("--corpus", required=True,
                   help="corpus JSON with the served databases")
    p.add_argument("--model", action="append", metavar="NAME=PATH",
                   help="register a saved seq2vis .npz (repeatable)")
    p.add_argument("--baselines", action="store_true",
                   help="also register the DeepEye/NL4DV baselines "
                        "(automatic when no --model is given)")
    p.add_argument("--default", help="model name requests use by default")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--max-batch-size", type=int, default=8,
                   help="requests coalesced into one forward pass")
    p.add_argument("--flush-ms", type=float, default=5.0,
                   help="longest wait in milliseconds for batch stragglers, "
                        "paid only after a batch that had company; a lone "
                        "request is dispatched at once")
    p.add_argument("--queue-depth", type=int, default=128,
                   help="queued requests before returning 429")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="per-request deadline in seconds (504 past it)")
    p.add_argument("--cache-size", type=int, default=1024,
                   help="response-cache entries; 0 disables")
    p.add_argument("--encoder-cache-size", type=int, default=256,
                   help="encoder-output cache entries; 0 disables")
    p.add_argument("--beam-width", type=int, default=1,
                   help="default decode beam width for requests that "
                        "don't pick one (1 = greedy)")
    p.add_argument("--precision",
                   choices=("float32", "float16", "int8", "float64"),
                   help="re-store every --model's weights at this "
                        "precision at load time")
    p.add_argument("--format", default="text",
                   choices=("text", "vega-lite", "echarts", "plotly",
                            "ascii", "ggplot"),
                   help="default render format for responses")
    p.add_argument("--warm", action="store_true",
                   help="run one dummy request per model before serving")
    p.add_argument("--workers", type=int, default=1,
                   help="decode worker processes; 1 (default) serves "
                        "single-process, N>1 runs the front/worker pool "
                        "with weights in shared memory")
    p.add_argument("--trace",
                   help="write a JSONL span export: one trace per request "
                        "(http.request → batch.wait/decode/render); with "
                        "--workers N>1 this names a directory holding "
                        "front.jsonl + worker-N.jsonl")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("trace", help="inspect JSONL span exports")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    ps = trace_sub.add_parser(
        "summarize",
        help="render a span tree + per-stage latency table from an export",
    )
    ps.add_argument("path",
                    help="JSONL file written by a --trace flag, or a "
                         "directory of per-process exports (the "
                         "multi-worker pool's front.jsonl + "
                         "worker-N.jsonl stitch into one tree)")
    ps.add_argument("--trace-id", help="render only this trace")
    ps.add_argument("--min-ms", type=float, default=0.0,
                    help="hide spans shorter than this many milliseconds")
    ps.add_argument("--max-depth", type=int,
                    help="truncate the span tree below this depth")
    ps.add_argument("--max-traces", type=int, default=5,
                    help="render at most this many traces (longest first)")
    ps.set_defaults(func=_cmd_trace_summarize)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
