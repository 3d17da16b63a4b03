"""Training loop for seq2vis: minibatch Adam with early stopping on the
validation loss (the paper uses patience 5).

The loop is the integration point of the fast-engine pieces:

* ``TrainConfig.dtype`` applies the dtype policy (default float32; the
  model is cast once, before the optimizer is built, so the flat Adam
  buffers alias float32 storage).
* ``TrainConfig.fused`` selects the fused engine (default): every
  variant's loss as about a dozen sequence-level graph nodes (both
  encoder directions in one recurrence node, the decoder in another,
  attention over all steps at once, and one fused loss node) plus the
  flat-buffer :class:`~repro.neural.optimizer.Adam`.  ``fused=False``
  is the seed-faithful reference engine (op-by-op LSTM graph, a
  per-step loss loop, :class:`~repro.neural.optimizer.ReferenceAdam`),
  kept as the parity oracle of the tests and the training benchmark's
  baseline.
* Each step backpropagates with ``free_graph=True``; ``backward``
  leaves no reference cycle, so the step's graph is freed as soon as
  the loss is dropped, not when the cyclic collector next runs.
* Epoch train loss is **token-weighted** (total masked token loss over
  total target tokens), the same statistic ``evaluate_loss`` reports,
  so train and validation curves are directly comparable.
* ``tracer=`` records ``train`` → ``epoch`` → ``step`` / ``evaluate``
  spans; each ``step`` carries its *target* token count (``tgt_mask``
  sum, invariant to padding), from which :func:`train_profile` computes
  the ``--profile`` report.  Without a tracer the loop reads no clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.neural import autograd as ag
from repro.neural.data import Seq2VisDataset
from repro.neural.dtype import DEFAULT_TRAIN_DTYPE
from repro.neural.model import Seq2Vis
from repro.neural.optimizer import Adam, ReferenceAdam
from repro.obs.trace import Tracer, traced


@dataclass
class TrainConfig:
    """Optimization hyperparameters (paper defaults where given)."""

    epochs: int = 20
    batch_size: int = 16
    lr: float = 5e-3
    clip_norm: float = 5.0
    patience: int = 5
    seed: int = 0
    verbose: bool = False
    #: training dtype policy; float64 reproduces the seed numerics
    dtype: str = DEFAULT_TRAIN_DTYPE
    #: fused kernels + flat Adam (True) vs the seed reference engine
    fused: bool = True


@dataclass
class TrainResult:
    """Loss curves and the best-validation epoch."""

    train_losses: List[float] = field(default_factory=list)
    val_losses: List[float] = field(default_factory=list)
    best_epoch: int = -1
    #: the optimizer used (its hyperparams are persisted by save_model)
    optimizer: Optional[object] = None


def evaluate_loss(model: Seq2Vis, dataset: Seq2VisDataset, batch_size: int = 32) -> float:
    """Token-weighted mean loss over *dataset* (no gradient updates).

    Runs under ``no_grad`` — no backward graph is recorded, so
    validation passes cost forward time and forward memory only.
    """
    if not dataset.examples:
        return 0.0
    total = 0.0
    count = 0
    with ag.no_grad():
        for batch in dataset.batches(batch_size):
            loss = model.loss(batch)
            weight = batch.tgt_mask.sum()
            total += loss.item() * weight
            count += weight
    return total / max(count, 1)


def train_model(
    model: Seq2Vis,
    train_set: Seq2VisDataset,
    val_set: Optional[Seq2VisDataset] = None,
    config: Optional[TrainConfig] = None,
    tracer: Optional[Tracer] = None,
) -> TrainResult:
    """Train *model*; restores the best-validation weights on return.

    ``tracer=`` exports the run as a span tree (``train`` → per-``epoch``
    spans → per-``step`` and ``evaluate`` spans) carrying the same
    loss/token numbers, so one training run can be inspected with
    ``repro trace summarize``.  It never changes the optimization
    trajectory.
    """
    config = config or TrainConfig()
    rng = np.random.default_rng(config.seed)
    model.to_dtype(config.dtype)
    model.set_fused(config.fused)
    optimizer_cls = Adam if config.fused else ReferenceAdam
    optimizer = optimizer_cls(
        model.parameters(), lr=config.lr, clip_norm=config.clip_norm
    )
    result = TrainResult(optimizer=optimizer)
    best_val = float("inf")
    best_state: Optional[Dict[str, np.ndarray]] = None
    stale = 0
    with traced(
        tracer, "train",
        epochs=config.epochs, batch_size=config.batch_size, lr=config.lr,
        dtype=config.dtype, fused=config.fused, examples=len(train_set.examples),
    ) as train_span:
        for epoch in range(config.epochs):
            epoch_loss = 0.0
            epoch_tokens = 0
            batches = train_set.batches(config.batch_size, rng)
            with traced(tracer, "epoch", epoch=epoch) as epoch_span:
                for batch in batches:
                    tokens = int(batch.tgt_mask.sum())
                    with traced(tracer, "step", tokens=tokens):
                        optimizer.zero_grad()
                        loss = model.loss(batch)
                        loss.backward(free_graph=config.fused)
                        optimizer.step()
                    epoch_loss += loss.item() * tokens
                    epoch_tokens += tokens
                epoch_loss /= max(epoch_tokens, 1)
                result.train_losses.append(epoch_loss)
                val_loss: Optional[float] = None
                if val_set is not None and val_set.examples:
                    with traced(tracer, "evaluate"):
                        val_loss = evaluate_loss(
                            model, val_set, config.batch_size
                        )
                    result.val_losses.append(val_loss)
                epoch_span.set_attributes(
                    {
                        "tokens": epoch_tokens,
                        "steps": len(batches),
                        "train_loss": epoch_loss,
                        "val_loss": val_loss,
                    }
                )
            if val_loss is not None:
                if config.verbose:
                    print(
                        f"epoch {epoch}: train={epoch_loss:.4f} val={val_loss:.4f}"
                    )
                if val_loss < best_val - 1e-4:
                    best_val = val_loss
                    best_state = model.state_dict()
                    result.best_epoch = epoch
                    stale = 0
                else:
                    stale += 1
                    if stale >= config.patience:
                        break
            elif config.verbose:
                print(f"epoch {epoch}: train={epoch_loss:.4f}")
        train_span.set_attributes(
            {"best_epoch": result.best_epoch,
             "epochs_run": len(result.train_losses)}
        )
    if best_state is not None:
        model.load_state_dict(best_state)
    return result


def train_profile(spans) -> dict:
    """The ``train --profile`` report of a :func:`train_model` run traced
    into ``SpanAggregator(keep=("epoch",))``.

    Tokens and ``train_seconds`` come from the ``step`` spans (optimizer
    steps only, so ``tokens_per_sec`` excludes validation); each epoch
    row is one ``epoch`` span, validation included.
    """
    steps = spans.get("step")
    tokens = int(steps.sums.get("tokens", 0))
    epochs = []
    for record in spans.kept("epoch"):
        row = record["attributes"]
        elapsed = record["duration_ms"] / 1000.0
        epochs.append({
            "epoch": row["epoch"], "seconds": elapsed, "tokens": row["tokens"],
            "steps": row["steps"],
            "tokens_per_sec": row["tokens"] / elapsed if elapsed > 0 else 0.0,
            "train_loss": row["train_loss"], "val_loss": row["val_loss"],
        })
    seconds = steps.seconds
    return {
        "tokens": tokens, "steps": steps.calls, "train_seconds": seconds,
        "tokens_per_sec": tokens / seconds if seconds > 0 else 0.0,
        "step_ms": steps.durations.summary(), "epochs": epochs,
    }
