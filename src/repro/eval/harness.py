"""End-to-end seq2vis experiment driver.

``train_and_evaluate`` reproduces the Section 4 protocol on a benchmark:
split pairs 80/4.5/15.5, train GloVe-style embeddings on the training
text, train one model variant with early stopping, decode the test set
greedily, restore values with the slot heuristic, and score all three
metrics.  The resulting :class:`EvaluationReport` knows how to aggregate
by hardness, vis type, and component — everything Figures 17/18 and
Tables 4/5 need.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.hardness import HARDNESS_LEVELS
from repro.core.nvbench import NVBench
from repro.core.synthesizer import SynthesizedPair
from repro.eval.metrics import COMPONENTS, PairOutcome, component_match, result_match, tree_match
from repro.eval.splits import split_pairs
from repro.grammar.ast_nodes import VIS_TYPES, VisQuery
from repro.grammar.serialize import from_tokens
from repro.neural.data import Seq2VisDataset, build_dataset
from repro.neural.model import Seq2Vis
from repro.neural.slots import fill_value_slots
from repro.neural.trainer import TrainConfig, train_model
from repro.nlp.embeddings import train_embeddings


@dataclass
class EvaluationReport:
    """Per-pair outcomes plus aggregation helpers."""

    variant: str
    outcomes: List[PairOutcome] = field(default_factory=list)

    # ----- headline numbers ------------------------------------------------

    @property
    def tree_accuracy(self) -> float:
        """Exact vis-AST match rate over the test set."""
        return _rate([o.tree for o in self.outcomes])

    @property
    def result_accuracy(self) -> float:
        """Rendered-chart-data match rate over the test set."""
        return _rate([o.result for o in self.outcomes])

    # ----- grouped views --------------------------------------------------

    def tree_accuracy_by_hardness(self) -> Dict[str, float]:
        """Tree accuracy per hardness tier (Figure 17b)."""
        return self._grouped(lambda o: o.hardness.value, HARDNESS_LEVELS)

    def tree_accuracy_by_type(self) -> Dict[str, float]:
        """Tree accuracy per chart type."""
        return self._grouped(lambda o: o.vis_type, VIS_TYPES)

    def tree_accuracy_matrix(self) -> Dict[Tuple[str, str], float]:
        """(vis type, hardness) → tree accuracy (Figure 17 c-e cells)."""
        buckets: Dict[Tuple[str, str], List[bool]] = defaultdict(list)
        for outcome in self.outcomes:
            buckets[(outcome.vis_type, outcome.hardness.value)].append(outcome.tree)
        return {key: _rate(flags) for key, flags in buckets.items()}

    def _grouped(self, key, order) -> Dict[str, float]:
        buckets: Dict[str, List[bool]] = defaultdict(list)
        for outcome in self.outcomes:
            buckets[key(outcome)].append(outcome.tree)
        return {name: _rate(buckets[name]) for name in order if buckets[name]}

    # ----- component view (Table 4) -----------------------------------------

    def vis_type_component_accuracy(self) -> Dict[str, float]:
        """Per gold vis type: how often the *type* itself was predicted."""
        buckets: Dict[str, List[bool]] = defaultdict(list)
        for outcome in self.outcomes:
            buckets[outcome.vis_type].append(outcome.type_predicted_correctly)
        out = {name: _rate(buckets[name]) for name in VIS_TYPES if buckets[name]}
        out["all"] = _rate([o.type_predicted_correctly for o in self.outcomes])
        return out

    def component_accuracy(self) -> Dict[str, float]:
        """Accuracy per vis component (Table 4's data columns)."""
        return {
            name: _rate([o.components.get(name, False) for o in self.outcomes])
            for name in COMPONENTS
        }

    def error_analysis(self):
        """Categorized error report over the wrong predictions."""
        from repro.eval.error_analysis import analyse

        return analyse([
            (o.predicted, o.gold, o.vis_type, o.hardness.value)
            for o in self.outcomes
            if o.gold is not None
        ])


def _rate(flags: Sequence[bool]) -> float:
    if not flags:
        return 0.0
    return sum(flags) / len(flags)


@dataclass
class ExperimentConfig:
    """Model + training sizes for one seq2vis run (scaled-down defaults
    that train on CPU in tens of seconds)."""

    embed_dim: int = 48
    hidden_dim: int = 64
    train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=20, batch_size=16, lr=5e-3))
    split_seed: int = 0
    model_seed: int = 0
    use_pretrained_embeddings: bool = True


def make_datasets(
    bench: NVBench,
    config: Optional[ExperimentConfig] = None,
    pairs: Optional[Sequence[SynthesizedPair]] = None,
) -> Tuple[Seq2VisDataset, Seq2VisDataset, Seq2VisDataset]:
    """Split *bench* and encode the three datasets with shared vocab."""
    config = config or ExperimentConfig()
    all_pairs = list(pairs if pairs is not None else bench.pairs)
    train_pairs, val_pairs, test_pairs = split_pairs(
        all_pairs, seed=config.split_seed
    )
    train_set = build_dataset(train_pairs, bench.databases)
    val_set = build_dataset(
        val_pairs, bench.databases, train_set.in_vocab, train_set.out_vocab
    )
    test_set = build_dataset(
        test_pairs, bench.databases, train_set.in_vocab, train_set.out_vocab
    )
    return train_set, val_set, test_set


def build_model(
    variant: str, train_set: Seq2VisDataset, config: ExperimentConfig
) -> Seq2Vis:
    """Instantiate a seq2vis variant, with GloVe-style embedding init."""
    pretrained = None
    if config.use_pretrained_embeddings:
        sentences = [example.src_tokens for example in train_set.examples]
        pretrained = train_embeddings(
            sentences, train_set.in_vocab, dim=config.embed_dim,
            seed=config.model_seed,
        )
    return Seq2Vis(
        in_vocab_size=len(train_set.in_vocab),
        out_vocab_size=len(train_set.out_vocab),
        variant=variant,
        embed_dim=config.embed_dim,
        hidden_dim=config.hidden_dim,
        seed=config.model_seed,
        pretrained_in=pretrained,
    )


def evaluate_model(
    model: Seq2Vis,
    test_set: Seq2VisDataset,
    bench: NVBench,
    batch_size: int = 32,
    beam_width: int = 1,
    length_penalty: float = 0.7,
) -> EvaluationReport:
    """Decode the test set and score all metrics.

    ``beam_width=1`` (the default, and the paper's protocol) decodes
    greedily; wider beams use the vectorized batched beam search and
    score its top hypothesis.
    """
    report = EvaluationReport(variant=model.variant)
    out_vocab = test_set.out_vocab
    examples = test_set.examples
    for start in range(0, len(examples), batch_size):
        chunk = examples[start : start + batch_size]
        batch = test_set.batch_of(chunk)
        if beam_width > 1:
            decoded = model.beam_decode_batch(
                batch, out_vocab.bos_id, out_vocab.eos_id,
                beam_width=beam_width, length_penalty=length_penalty,
            )
        else:
            decoded = model.greedy_decode_batch(
                batch, out_vocab.bos_id, out_vocab.eos_id
            )
        for ids, example in zip(decoded, chunk):
            pair = example.pair
            database = bench.databases[pair.db_name]
            predicted = _parse_prediction(out_vocab.decode(ids))
            filled = None
            if predicted is not None:
                try:
                    filled = fill_value_slots(predicted, pair.nl, database)
                except Exception:
                    filled = None
            outcome = PairOutcome(
                vis_type=pair.vis_type,
                hardness=pair.hardness,
                tree=tree_match(predicted, pair.vis),
                result=result_match(filled, pair.vis, database),
                components=component_match(predicted, pair.vis),
                predicted_type=predicted.vis_type if predicted is not None else None,
                predicted=predicted,
                gold=pair.vis,
            )
            report.outcomes.append(outcome)
    return report


@dataclass
class QuantizationReport:
    """Accuracy of quantized weight copies against the float32 model.

    One row per precision; :meth:`assert_within` is the regression
    guard the eval harness and CI use — quantization is only an
    optimization if it does not move the headline metric.
    """

    float32_tree_accuracy: float
    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def drop(self, precision: str) -> float:
        """Tree-accuracy loss of *precision* relative to float32."""
        return self.float32_tree_accuracy - self.rows[precision]["tree_accuracy"]

    def assert_within(self, epsilon: float) -> None:
        """Raise if any precision loses more than *epsilon* tree accuracy."""
        for precision in self.rows:
            lost = self.drop(precision)
            if lost > epsilon:
                raise AssertionError(
                    f"{precision} tree accuracy dropped {lost:.4f} "
                    f"(> epsilon {epsilon}): "
                    f"{self.rows[precision]['tree_accuracy']:.4f} vs "
                    f"float32 {self.float32_tree_accuracy:.4f}"
                )

    def to_json(self) -> Dict[str, object]:
        return {
            "float32_tree_accuracy": self.float32_tree_accuracy,
            "precisions": {
                name: {**row, "tree_accuracy_drop": self.drop(name)}
                for name, row in self.rows.items()
            },
        }


def quantization_report(
    model: Seq2Vis,
    test_set: Seq2VisDataset,
    bench: NVBench,
    precisions: Sequence[str] = ("float16", "int8"),
    batch_size: int = 32,
    beam_width: int = 1,
    epsilon: Optional[float] = None,
) -> QuantizationReport:
    """Evaluate quantized copies of *model* against its float32 accuracy.

    *model* is left untouched (copies are quantized).  When *epsilon*
    is given the report is asserted immediately — the one-call guard
    for "is int8 safe to serve on this checkpoint?".
    """
    from repro.neural.quantize import quantized_copy, storage_report

    base = evaluate_model(
        model, test_set, bench, batch_size=batch_size, beam_width=beam_width
    )
    report = QuantizationReport(float32_tree_accuracy=base.tree_accuracy)
    for precision in precisions:
        copy = quantized_copy(model, precision)
        scored = evaluate_model(
            copy, test_set, bench, batch_size=batch_size, beam_width=beam_width
        )
        storage = storage_report(copy)
        report.rows[precision] = {
            "tree_accuracy": scored.tree_accuracy,
            "result_accuracy": scored.result_accuracy,
            "compression": storage["compression"],
            "stored_bytes": storage["stored_bytes"],
        }
    if epsilon is not None:
        report.assert_within(epsilon)
    return report


def _parse_prediction(tokens: List[str]) -> Optional[VisQuery]:
    try:
        parsed = from_tokens(tokens)
    except Exception:
        return None
    if not isinstance(parsed, VisQuery):
        return None
    return parsed


def train_and_evaluate(
    bench: NVBench,
    variant: str = "attention",
    config: Optional[ExperimentConfig] = None,
    pairs: Optional[Sequence[SynthesizedPair]] = None,
) -> Tuple[Seq2Vis, EvaluationReport]:
    """The full Section 4 protocol for one variant."""
    config = config or ExperimentConfig()
    train_set, val_set, test_set = make_datasets(bench, config, pairs)
    model = build_model(variant, train_set, config)
    train_model(model, train_set, val_set, config.train)
    report = evaluate_model(model, test_set, bench)
    return model, report
