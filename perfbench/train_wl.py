"""``train``: seq2vis training and held-out evaluation, in one process.

Set-up builds a fixed in-memory benchmark, splits and encodes it, and
initialises the ``copy`` variant at the CLI's default sizes
(float32, embed 56, hidden 96, batch 24).  The set-up runs three times
and its median is reported.  The measured phase trains for a fixed
number of epochs (no early stop, validation every epoch), then decodes
and scores the held-out split; the evaluation repeats and its median is
reported.  ``serve`` and ``pipeline`` never run here.

The corpus, the split, the initial weights and the batch order are the
same in every run, so every run does the same training and decoding
work: the trained model's outputs set the cost of the held-out decode,
and a model drawn from the seed made that cost vary by a third between
seeds.  The seed draws the held-out sample of the decode-identity check.
"""

from __future__ import annotations

import gc
import math
import random
import time

from common import (
    Context, HostWatch, Outcome, at_reference, import_probe_s, median,
    self_peak_rss_mb,
)

#: Benchmark the model trains on: databases x (NL, SQL) pairs each,
#: and the seed of its corpus, split, initial weights and batch order.
TRAIN_SEED = 7
DATABASES = 16
PAIRS_PER_DATABASE = 16
EPOCHS = 3
SETUP_REPEATS = 3
EVAL_REPEATS = 30
#: Held-out examples decoded one by one against the batched decode.
DECODE_SAMPLE = 24
MODULES = ("repro.core.nvbench", "repro.eval.harness", "repro.neural.trainer")


def _setup():
    from repro.core.nvbench import NVBenchConfig, build_nvbench
    from repro.eval.harness import ExperimentConfig, build_model, make_datasets
    from repro.neural.trainer import TrainConfig
    from repro.spider.corpus import CorpusConfig

    bench = build_nvbench(config=NVBenchConfig(
        corpus=CorpusConfig(num_databases=DATABASES,
                            pairs_per_database=PAIRS_PER_DATABASE,
                            row_scale=0.5, seed=TRAIN_SEED),
        seed=TRAIN_SEED,
    ))
    config = ExperimentConfig(
        embed_dim=56, hidden_dim=96, split_seed=TRAIN_SEED,
        model_seed=TRAIN_SEED,
        train=TrainConfig(epochs=EPOCHS, batch_size=24, lr=5e-3,
                          patience=EPOCHS + 1, seed=TRAIN_SEED,
                          dtype="float32"),
    )
    datasets = make_datasets(bench, config)
    model = build_model("copy", datasets[0], config)
    return bench, config, datasets, model


def run(ctx: Context) -> Outcome:
    out = Outcome()
    import_s = import_probe_s(ctx, MODULES)
    for module in MODULES:
        __import__(module)
    recorder = None
    if ctx.trace:
        import train_trace

        recorder = train_trace.install_setup()
    setups = []
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        start = time.perf_counter()
        state = _setup()
        setups.append(time.perf_counter() - start)
    bench, config, (train_set, val_set, test_set), model = state

    from repro.eval.harness import build_model, evaluate_model
    from repro.neural.trainer import train_model

    if recorder is not None:
        recorder.phase = ""
        plain = _train(ctx, model, train_set, val_set, config, train_model)
        model = build_model("copy", train_set, config)
        train_trace.install(recorder)

    with HostWatch(ctx) as watch:
        if recorder is not None:
            recorder.phase = "train"
        trained = _train(ctx, model, train_set, val_set, config, train_model)
        if recorder is not None:
            recorder.phase = "eval"
        for _ in range(EVAL_REPEATS):
            report, seconds, factor = ctx.calibration.timed(
                lambda: evaluate_model(model, test_set, bench))
            trained["eval"].append((seconds, factor))
        trained["report"] = report
        if recorder is not None:
            recorder.phase = ""
    peak = self_peak_rss_mb()

    train_s = trained["train"][0]
    tokens = trained["tokens"]
    evals = trained["eval"]
    eval_s = median(seconds for seconds, _ in evals)
    setup_s = import_s + median(setups)
    ctx.log(f"train: {len(train_set)} train / {len(val_set)} validation / "
            f"{len(test_set)} held-out examples, {EPOCHS} epochs, "
            f"{tokens} target tokens in {train_s:.3f} s; losses "
            f"{[round(x, 4) for x in trained['losses']]}")
    ctx.log(f"eval: {[round(seconds, 4) for seconds, _ in evals]} s per "
            f"pass; tree accuracy {report.tree_accuracy:.3f}, result "
            f"accuracy {report.result_accuracy:.3f}")
    ctx.log(f"setup: imports {import_s:.3f} s + build/encode/init "
            f"{[round(seconds, 3) for seconds in setups]} s")
    watch.report(out)

    _check(ctx, out, model, train_set, test_set, trained)
    if recorder is None:
        # work: target tokens trained; op: one pass over the held-out split.
        out.metric("setup_s", setup_s, "s")
        out.metric("peak_rss_mb", peak, "MB")
        out.metric("work_per_s", tokens / at_reference([trained["train"]]),
                   "items/ref-s", raw=tokens / train_s)
        out.metric("op_p50_ms", 1000.0 * at_reference(evals), "ref-ms",
                   raw=1000.0 * eval_s)
    else:
        recorder.restore()
        train_trace.report(recorder, out, ctx)
        out.metric("bench.tracing_overhead", train_s / plain["train"][0],
                   "ratio")
        recorder.write(ctx.root / ".perfbench" / "trace-train.jsonl")
    return out


def _train(ctx, model, train_set, val_set, config, train_model) -> dict:
    """Train once; count the target tokens of every batch handed over."""
    counted = {"tokens": 0, "steps": 0}
    batches = train_set.batches

    def counting_batches(batch_size, rng=None):
        made = batches(batch_size, rng)
        counted["tokens"] += int(sum(b.tgt_mask.sum() for b in made))
        counted["steps"] += len(made)
        return made

    train_set.batches = counting_batches
    try:
        result, seconds, factor = ctx.calibration.timed(
            lambda: train_model(model, train_set, val_set, config.train))
    finally:
        del train_set.batches
    return {"train": (seconds, factor), "tokens": counted["tokens"],
            "steps": counted["steps"], "losses": result.train_losses,
            "eval": []}


def _check(ctx, out, model, train_set, test_set, trained) -> None:
    from repro.grammar.serialize import to_tokens

    # Epoch losses are token-weighted means of non-negative step losses,
    # so a finite epoch loss means every step's loss was finite.
    expected_tokens = EPOCHS * sum(
        len(to_tokens(example.pair.vis, mask_values=True)) + 1
        for example in train_set.examples
    )
    losses = trained["losses"]
    out.check(len(losses) == EPOCHS,
              f"training ran {len(losses)} epochs, not {EPOCHS}")
    out.check(all(math.isfinite(loss) for loss in losses),
              f"a training loss is not finite: {losses}")
    out.check(losses[-1] < losses[0],
              f"last epoch's loss {losses[-1]} is not below the first's "
              f"{losses[0]}")
    out.check(trained["tokens"] == expected_tokens,
              f"trained on {trained['tokens']} target tokens; the pairs "
              f"hold {expected_tokens}")
    out.attempted += trained["steps"] + len(test_set) * len(trained["eval"])
    out.check(len(trained["report"].outcomes) == len(test_set),
              "evaluation skipped held-out examples")

    sample = random.Random(ctx.seed).sample(
        test_set.examples, min(DECODE_SAMPLE, len(test_set.examples))
    )
    out_vocab = test_set.out_vocab
    batched = model.greedy_decode_batch(
        test_set.batch_of(sample), out_vocab.bos_id, out_vocab.eos_id
    )
    for example, ids in zip(sample, batched):
        alone = model.greedy_decode_batch(
            test_set.batch_of([example]), out_vocab.bos_id, out_vocab.eos_id
        )[0]
        out.check(list(alone) == list(ids),
                  "batched greedy decode differs from per-example decode")
    out.attempted += len(sample)
