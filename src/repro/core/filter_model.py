"""Filtering bad visualizations (paper Section 2.4).

Reimplements DeepEye's two-stage working mechanism:

1. **Expert rules** remove invalid and obviously bad charts — the four
   classes the paper observed on TPC-H/TPC-DS: single-value results, pie
   charts with too many slices, bar charts with too many categories, and
   degenerate/empty results.
2. A **trained binary classifier** decides good/bad for the remainder.
   The original was trained on 2,520/30,892 hand-labelled charts; since
   those labels are unavailable offline, we train a logistic regression
   (pure numpy) on charts sampled from a synthetic corpus and labelled by
   a richer *teacher* rule set encoding the community rules-of-thumb the
   original labels captured.  The feature vector follows the paper:
   number of distinct values, number of tuples, ratio of unique values,
   max/min values, data type, attribute correlation, and vis type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.grammar.ast_nodes import VIS_TYPES, VisQuery
from repro.obs.trace import Tracer, traced
from repro.storage.executor import (
    ExecutionCache,
    ExecutionError,
    Executor,
    ResultTable,
)
from repro.storage.schema import Database

#: rule thresholds (expert stage)
MAX_PIE_SLICES = 12
MAX_BAR_CATEGORIES = 50
MAX_LINE_POINTS = 500
MAX_SCATTER_POINTS = 2000
MAX_SERIES = 12


@dataclass(frozen=True)
class ChartFeatures:
    """The DeepEye feature vector for one rendered chart."""

    vis_type: str
    n_rows: int
    n_distinct_x: int
    unique_ratio_x: float
    y_min: float
    y_max: float
    y_spread: float
    x_is_temporal: bool
    x_is_numeric: bool
    correlation: float
    n_series: int

    def to_vector(self) -> np.ndarray:
        """Numeric feature vector (log-scaled counts + type one-hot)."""
        type_onehot = [1.0 if self.vis_type == name else 0.0 for name in VIS_TYPES]
        return np.array(
            [
                math.log1p(self.n_rows),
                math.log1p(self.n_distinct_x),
                self.unique_ratio_x,
                math.log1p(abs(self.y_min)),
                math.log1p(abs(self.y_max)),
                math.log1p(self.y_spread),
                1.0 if self.x_is_temporal else 0.0,
                1.0 if self.x_is_numeric else 0.0,
                self.correlation,
                math.log1p(self.n_series),
            ]
            + type_onehot
        )


FEATURE_DIM = 10 + len(VIS_TYPES)


def extract_features(
    vis: VisQuery,
    database: Database,
    result: Optional[ResultTable] = None,
    cache: Optional[ExecutionCache] = None,
) -> Optional[ChartFeatures]:
    """Execute *vis* (unless *result* is given) and featurize the chart.

    Returns ``None`` when the query cannot run — callers treat that as a
    bad chart.  With a *cache*, candidates sharing a query body execute
    once (failures included).
    """
    if result is None:
        try:
            result = Executor(database, cache=cache).execute(vis)
        except ExecutionError:
            return None
    if not result.rows:
        return None
    xs = result.column_values(0)
    ys = result.column_values(1) if len(result.columns) > 1 else xs
    numeric_ys = [y for y in ys if isinstance(y, (int, float))]
    distinct_x = len(set(xs))
    y_min = float(min(numeric_ys)) if numeric_ys else 0.0
    y_max = float(max(numeric_ys)) if numeric_ys else 0.0
    n_series = 1
    if len(result.columns) > 2:
        n_series = len(set(result.column_values(2)))
    numeric_xs = [x for x in xs if isinstance(x, (int, float))]
    correlation = 0.0
    if len(numeric_xs) == len(xs) and len(numeric_ys) == len(ys) and len(xs) > 2:
        x_arr = np.asarray(numeric_xs, dtype=float)
        y_arr = np.asarray(numeric_ys, dtype=float)
        if x_arr.std() > 0 and y_arr.std() > 0:
            correlation = float(np.corrcoef(x_arr, y_arr)[0, 1])
    core = vis.cores[0]
    x_attr = core.select[0]
    x_type = database.column_type(x_attr.table, x_attr.column)
    return ChartFeatures(
        vis_type=vis.vis_type,
        n_rows=result.row_count,
        n_distinct_x=distinct_x,
        unique_ratio_x=distinct_x / max(len(xs), 1),
        y_min=y_min,
        y_max=y_max,
        y_spread=y_max - y_min,
        x_is_temporal=x_type == "T",
        x_is_numeric=x_type == "Q",
        correlation=correlation,
        n_series=n_series,
    )


def rule_verdict(features: ChartFeatures) -> Optional[bool]:
    """The expert-rule stage: ``True``/``False`` when a rule fires,
    ``None`` when the chart should go to the classifier.

    Encodes the paper's four observed bad classes plus the obvious
    rules-of-thumb from the vis community.
    """
    # (1) single value: better shown as a table than a chart.
    if features.n_rows <= 1:
        return False
    # (2) pie charts with many slices.
    if features.vis_type == "pie":
        if features.n_rows > MAX_PIE_SLICES:
            return False
        if features.y_min < 0:
            return False
    # (3) bar charts with too many categories.
    if features.vis_type in ("bar", "stacked bar"):
        if features.n_distinct_x > MAX_BAR_CATEGORIES:
            return False
    # (4) degenerate axes.
    if features.vis_type in ("line", "grouping line"):
        if features.n_distinct_x > MAX_LINE_POINTS:
            return False
        if features.n_distinct_x < 2:
            return False
    if features.vis_type in ("scatter", "grouping scatter"):
        if features.n_rows > MAX_SCATTER_POINTS:
            return False
        if features.n_rows < 3:
            return False
    if features.n_series > MAX_SERIES:
        return False
    return None


def teacher_label(features: ChartFeatures) -> bool:
    """Training label for the classifier: the community rules-of-thumb
    the original 2,520/30,892 hand labels encoded, at finer granularity
    than :func:`rule_verdict`."""
    verdict = rule_verdict(features)
    if verdict is not None:
        return verdict
    if features.vis_type == "pie":
        return (
            2 <= features.n_rows <= 8
            and features.y_min >= 0
            and features.unique_ratio_x > 0.99
        )
    if features.vis_type in ("bar", "stacked bar"):
        # Bars need distinct categories on the x axis; repeated category
        # labels mean the query should have grouped instead.
        if features.vis_type == "bar" and features.unique_ratio_x < 0.9:
            return False
        return 2 <= features.n_distinct_x <= 30
    if features.vis_type in ("line", "grouping line"):
        return 3 <= features.n_distinct_x <= 120
    if features.vis_type in ("scatter", "grouping scatter"):
        return 5 <= features.n_rows <= 1500
    return True


class LogisticRegression:
    """Minimal L2-regularized logistic regression trained by Adam."""

    def __init__(self, dim: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.weights = rng.normal(scale=0.01, size=dim)
        self.bias = 0.0

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """P(good chart) per row of *features*."""
        logits = features @ self.weights + self.bias
        return 1.0 / (1.0 + np.exp(-np.clip(logits, -30, 30)))

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int = 200,
        lr: float = 0.05,
        l2: float = 1e-4,
    ) -> List[float]:
        """Fit by Adam on the logistic loss; returns the loss curve."""
        losses = []
        m_w = np.zeros_like(self.weights)
        v_w = np.zeros_like(self.weights)
        m_b = v_b = 0.0
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for step in range(1, epochs + 1):
            proba = self.predict_proba(features)
            error = proba - labels
            grad_w = features.T @ error / len(labels) + l2 * self.weights
            grad_b = float(error.mean())
            m_w = beta1 * m_w + (1 - beta1) * grad_w
            v_w = beta2 * v_w + (1 - beta2) * grad_w**2
            m_b = beta1 * m_b + (1 - beta1) * grad_b
            v_b = beta2 * v_b + (1 - beta2) * grad_b**2
            m_w_hat = m_w / (1 - beta1**step)
            v_w_hat = v_w / (1 - beta2**step)
            m_b_hat = m_b / (1 - beta1**step)
            v_b_hat = v_b / (1 - beta2**step)
            self.weights -= lr * m_w_hat / (np.sqrt(v_w_hat) + eps)
            self.bias -= lr * m_b_hat / (math.sqrt(v_b_hat) + eps)
            proba = np.clip(proba, 1e-9, 1 - 1e-9)
            loss = float(
                -(labels * np.log(proba) + (1 - labels) * np.log(1 - proba)).mean()
            )
            losses.append(loss)
        return losses


class DeepEyeFilter:
    """The two-stage good/bad chart filter M() of Section 2.4."""

    def __init__(self, model: Optional[LogisticRegression] = None):
        self.model = model

    def score(self, features: ChartFeatures) -> float:
        """Goodness score in [0, 1]; rule rejections score 0."""
        verdict = rule_verdict(features)
        if verdict is False:
            return 0.0
        if verdict is True:
            return 1.0
        if self.model is None:
            return 1.0 if teacher_label(features) else 0.0
        return float(self.model.predict_proba(features.to_vector()[None, :])[0])

    def score_batch(self, samples: Sequence[ChartFeatures]) -> np.ndarray:
        """Vectorized :meth:`score` over many charts.

        Rule verdicts short-circuit per chart; everything the rules leave
        undecided is stacked into one matrix and scored through a single
        ``predict_proba`` call.
        """
        scores = np.empty(len(samples), dtype=float)
        undecided: List[int] = []
        for index, features in enumerate(samples):
            verdict = rule_verdict(features)
            if verdict is False:
                scores[index] = 0.0
            elif verdict is True:
                scores[index] = 1.0
            elif self.model is None:
                scores[index] = 1.0 if teacher_label(features) else 0.0
            else:
                undecided.append(index)
        if undecided:
            matrix = np.stack([samples[i].to_vector() for i in undecided])
            scores[np.asarray(undecided)] = self.model.predict_proba(matrix)
        return scores

    def is_good(
        self,
        vis: VisQuery,
        database: Database,
        result: Optional[ResultTable] = None,
        threshold: float = 0.5,
    ) -> bool:
        features = extract_features(vis, database, result)
        if features is None:
            return False
        return self.score(features) >= threshold

    def fit(
        self,
        samples: Sequence[ChartFeatures],
        labels: Sequence[bool],
        seed: int = 0,
    ) -> List[float]:
        """Train the classifier stage on featurized charts."""
        matrix = np.stack([f.to_vector() for f in samples])
        target = np.asarray(labels, dtype=float)
        self.model = LogisticRegression(dim=matrix.shape[1], seed=seed)
        return self.model.fit(matrix, target)


def train_filter_from_candidates(
    candidates: Sequence[Tuple[VisQuery, Database]],
    seed: int = 0,
    cache: Optional[ExecutionCache] = None,
    tracer: Optional[Tracer] = None,
) -> DeepEyeFilter:
    """Train a :class:`DeepEyeFilter` on candidate charts labelled by the
    teacher rules (the offline stand-in for DeepEye's labelled corpus).

    Executions go through *cache* when given, so the benchmark build's
    synthesis pass can reuse the filter-training pass's results.
    """
    samples: List[ChartFeatures] = []
    labels: List[bool] = []
    with traced(tracer, "filter_featurize"):
        for vis, database in candidates:
            features = extract_features(vis, database, cache=cache)
            if features is None:
                continue
            samples.append(features)
            labels.append(teacher_label(features))
    filter_model = DeepEyeFilter()
    if samples and len(set(labels)) > 1:
        with traced(tracer, "filter_fit"):
            filter_model.fit(samples, labels, seed=seed)
    return filter_model
