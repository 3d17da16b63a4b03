"""Training-engine performance harness (`BENCH_train.json` trajectory).

Trains the attention variant three times on one shared benchmark split:

* **baseline** — the seed-equivalent engine: float64, the op-by-op LSTM
  graph (``fused=False``), and the per-parameter-loop
  :class:`~repro.neural.optimizer.ReferenceAdam`.
* **parity** — the fused kernels + flat Adam, still at float64.  Its
  loss curve must match the baseline within 1e-6 per epoch: the fused
  engine computes the same forward values bit for bit, so any drift
  would be a backward bug, not noise.
* **optimized** — the default training configuration: fused + flat Adam
  at float32.

Asserts the optimized engine is ≥ 3× the baseline's tokens/sec, that
``greedy_decode_batch`` is token-identical to per-example decoding, and
writes ``results/BENCH_train.json`` with all three profiles so the
trajectory can be compared across commits.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from repro.core.nvbench import NVBenchConfig, build_nvbench
from repro.eval.harness import ExperimentConfig, build_model, make_datasets
from repro.neural.trainer import TrainConfig, train_model, train_profile
from repro.obs import SpanAggregator, Tracer
from repro.spider.corpus import CorpusConfig, build_spider_corpus

from conftest import emit, results_path

PARITY_ATOL = 1e-6
MIN_SPEEDUP = 3.0


@dataclass(frozen=True)
class TrainBenchProfile:
    num_databases: int
    pairs_per_database: int
    embed_dim: int
    hidden_dim: int
    epochs: int
    batch_size: int


DEFAULT_PROFILE = TrainBenchProfile(
    num_databases=6, pairs_per_database=10,
    embed_dim=56, hidden_dim=96, epochs=3, batch_size=24,
)
# Same model dims as the default profile (tiny models are dominated by
# Python dispatch on BOTH engines, which understates the speedup); the
# corpus is what shrinks in quick mode.
QUICK_PROFILE = TrainBenchProfile(
    num_databases=3, pairs_per_database=8,
    embed_dim=56, hidden_dim=96, epochs=2, batch_size=24,
)


def _datasets(profile: TrainBenchProfile):
    corpus_config = CorpusConfig(
        num_databases=profile.num_databases,
        pairs_per_database=profile.pairs_per_database,
        row_scale=0.5,
        seed=7,
    )
    corpus = build_spider_corpus(corpus_config)
    bench = build_nvbench(
        corpus=corpus, config=NVBenchConfig(corpus=corpus_config, seed=7)
    )
    config = ExperimentConfig(
        embed_dim=profile.embed_dim, hidden_dim=profile.hidden_dim
    )
    return bench, config, make_datasets(bench, config)


def _run(profile, exp_config, train_set, val_set, dtype, fused, repeats=2):
    """Train with one engine; returns the best-throughput repeat.

    Every repeat is seeded identically, so the loss curves are the same
    and only the wall-clock differs; taking the fastest repeat filters
    transient machine load out of the speedup ratio.
    """
    train_config = TrainConfig(
        epochs=profile.epochs,
        batch_size=profile.batch_size,
        lr=5e-3,
        clip_norm=5.0,
        patience=profile.epochs,  # no early stop: same step count per run
        seed=0,
        dtype=dtype,
        fused=fused,
    )
    best = None
    for _ in range(repeats):
        model = build_model("attention", train_set, exp_config)
        spans = SpanAggregator(keep=("epoch",))
        result = train_model(
            model, train_set, val_set, train_config,
            tracer=Tracer(exporter=spans),
        )
        report = train_profile(spans)
        if best is None or report["tokens_per_sec"] > best[2]["tokens_per_sec"]:
            best = (model, result, report)
    return best


def test_fast_engine_speedup_and_parity():
    profile = (
        QUICK_PROFILE
        if os.environ.get("REPRO_BENCH_PROFILE") == "quick"
        else DEFAULT_PROFILE
    )
    bench, exp_config, (train_set, val_set, test_set) = _datasets(profile)

    base_model, base_result, base_prof = _run(
        profile, exp_config, train_set, val_set, "float64", fused=False
    )
    parity_model, parity_result, parity_prof = _run(
        profile, exp_config, train_set, val_set, "float64", fused=True
    )
    opt_model, opt_result, opt_prof = _run(
        profile, exp_config, train_set, val_set, "float32", fused=True
    )

    speedup = opt_prof["tokens_per_sec"] / base_prof["tokens_per_sec"]
    parity_drift = float(
        np.max(
            np.abs(
                np.asarray(parity_result.train_losses)
                - np.asarray(base_result.train_losses)
            )
        )
    )

    # Batched decode parity on the held-out test set (fast path the
    # eval harness and the serving layer both use).
    out_vocab = test_set.out_vocab
    decode_batch = test_set.batch_of(test_set.examples)
    batched = opt_model.greedy_decode_batch(
        decode_batch, out_vocab.bos_id, out_vocab.eos_id
    )
    singles = []
    for example in test_set.examples:
        single = test_set.batch_of([example])
        singles.extend(
            opt_model.greedy_decode(single, out_vocab.bos_id, out_vocab.eos_id)
        )
    decode_identical = batched == singles

    trajectory = {
        "profile": {
            "num_databases": profile.num_databases,
            "pairs_per_database": profile.pairs_per_database,
            "embed_dim": profile.embed_dim,
            "hidden_dim": profile.hidden_dim,
            "epochs": profile.epochs,
            "batch_size": profile.batch_size,
            "train_examples": len(train_set),
        },
        "speedup": speedup,
        "parity_max_epoch_drift": parity_drift,
        "decode_token_identical": decode_identical,
        "baseline": {
            "engine": "float64 unfused ReferenceAdam",
            "train_losses": base_result.train_losses,
            **base_prof,
        },
        "parity": {
            "engine": "float64 fused flat-Adam",
            "train_losses": parity_result.train_losses,
            **parity_prof,
        },
        "optimized": {
            "engine": "float32 fused flat-Adam",
            "train_losses": opt_result.train_losses,
            **opt_prof,
        },
    }
    results_path("BENCH_train.json").write_text(json.dumps(trajectory, indent=2))

    emit(
        "BENCH training engine",
        f"baseline  (f64 unfused) {base_prof['tokens_per_sec']:10.0f} tokens/sec\n"
        f"parity    (f64 fused)   {parity_prof['tokens_per_sec']:10.0f} tokens/sec\n"
        f"optimized (f32 fused)   {opt_prof['tokens_per_sec']:10.0f} tokens/sec\n"
        f"speedup                 {speedup:10.2f}x\n"
        f"parity max epoch drift  {parity_drift:10.2e}\n"
        f"decode token-identical  {decode_identical!s:>10}",
    )

    assert parity_drift <= PARITY_ATOL, (
        f"fused float64 loss curve drifted {parity_drift:.2e} from the "
        f"reference engine (allowed {PARITY_ATOL:.0e})"
    )
    assert decode_identical, "greedy_decode_batch diverged from per-example decode"
    assert speedup >= MIN_SPEEDUP, f"fast engine only {speedup:.2f}x the baseline"
