"""The end-to-end nl2sql-to-nl2vis synthesizer (paper Figure 3).

Input: one (NL, SQL) pair plus its database.  Output: a set of (NL, VIS)
pairs — multiple VIS trees per SQL tree (Step 1: vis synthesis with tree
edits + bad-chart filtering) and multiple NL variants per VIS tree
(Step 2: NL synthesis with rule edits + back-translation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.core.filter_model import DeepEyeFilter, extract_features
from repro.core.hardness import Hardness, classify_hardness
from repro.core.nl_edits import synthesize_nl_variants
from repro.core.tree_edits import TreeEditConfig, VisCandidate, generate_candidates
from repro.grammar.ast_nodes import SQLQuery, VisQuery
from repro.obs.trace import Tracer, traced
from repro.sqlparse.parser import parse_sql
from repro.sqlparse.printer import to_sql
from repro.storage.executor import ExecutionCache
from repro.storage.schema import Database


@dataclass(frozen=True)
class SynthesizedPair:
    """One synthesized (NL, VIS) pair with full provenance."""

    nl: str
    vis: VisQuery
    db_name: str
    hardness: Hardness
    source_nl: str
    source_sql: str
    manually_edited: bool
    back_translated: bool

    @property
    def vis_type(self) -> str:
        """Chart type of the synthesized visualization."""
        return self.vis.vis_type


#: Ranking priors reflecting how strongly DeepEye's learned scorer favors
#: each chart family (bars dominate real recommendation corpora — Beagle
#: and SEEDB both report bar/histogram as by far the most common type).
_TYPE_PRIOR = {
    "bar": 1.0,
    "stacked bar": 0.95,
    "scatter": 0.80,
    "grouping scatter": 0.85,
    "line": 0.72,
    "grouping line": 0.85,
    "pie": 0.76,
}

#: Diminishing returns per already-kept chart of the same type, so the
#: second kept candidate is often a *different* type (but a second bar
#: variant still wins when nothing else is good).
_REPEAT_DISCOUNT = 0.80


class NL2VISSynthesizer:
    """Synthesizes (NL, VIS) pairs from (NL, SQL) pairs.

    Parameters
    ----------
    chart_filter:
        The good/bad chart filter; defaults to the pure rule +
        teacher-label filter (no trained classifier).
    tree_config:
        Bounds for the candidate enumeration.
    max_vis_per_query:
        After filtering, keep at most this many VIS trees per input SQL
        query, ranked by filter score (nvBench averages well under one
        kept vis per input pair — the filter is deliberately harsh).
    seed:
        Seeds NL template sampling; the pipeline is deterministic.
    cache:
        Optional :class:`ExecutionCache` shared across candidates (and
        with the filter-training pass) so each query body executes once.
    tracer:
        Optional :class:`~repro.obs.Tracer` emitting the ``candidates``,
        ``featurize``, ``score``, and ``select`` stages as spans, nested
        under whatever span is active when :meth:`synthesize` runs (the
        build's per-pair span).
    """

    def __init__(
        self,
        chart_filter: Optional[DeepEyeFilter] = None,
        tree_config: Optional[TreeEditConfig] = None,
        max_vis_per_query: int = 2,
        second_slot_threshold: float = 0.52,
        seed: int = 0,
        cache: Optional[ExecutionCache] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.chart_filter = chart_filter or DeepEyeFilter()
        self.tree_config = tree_config or TreeEditConfig()
        self.max_vis_per_query = max_vis_per_query
        self.second_slot_threshold = second_slot_threshold
        self.cache = cache
        self.tracer = tracer
        self._rng = np.random.default_rng(seed)

    def synthesize(
        self,
        nl: str,
        sql: Union[str, SQLQuery],
        database: Database,
        n_variants: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> List[SynthesizedPair]:
        """Run both synthesis steps for one (NL, SQL) input pair.

        An explicit *rng* makes the call independent of synthesizer state
        — the parallel build derives one per input pair so that sharded
        and serial builds sample identically.
        """
        rng = rng if rng is not None else self._rng
        query = parse_sql(sql, database) if isinstance(sql, str) else sql
        kept = self.good_candidates(query, database)
        pairs: List[SynthesizedPair] = []
        sql_text = sql if isinstance(sql, str) else to_sql(sql, database)
        for candidate in kept:
            per_vis = n_variants
            if per_vis is None and candidate.edit.has_deletions:
                # Deletion cases need "manual" NL revision (Section 3.1) —
                # the paper's experts wrote ~1.9 variants for those versus
                # ~3.7 on average, so we produce fewer too.
                per_vis = int(rng.integers(1, 3))
            variants = synthesize_nl_variants(
                source_nl=nl,
                edit=candidate.edit,
                vis=candidate.vis,
                rng=rng,
                n_variants=per_vis,
            )
            hardness = classify_hardness(candidate.vis)
            for variant in variants:
                pairs.append(
                    SynthesizedPair(
                        nl=variant.text,
                        vis=candidate.vis,
                        db_name=database.name,
                        hardness=hardness,
                        source_nl=nl,
                        source_sql=sql_text,
                        manually_edited=variant.manually_edited,
                        back_translated=variant.back_translated,
                    )
                )
        return pairs

    def good_candidates(
        self, query: SQLQuery, database: Database
    ) -> List[VisCandidate]:
        """Step 1: candidate VIS trees surviving the bad-chart filter.

        Ranking prefers higher filter scores and fewer deletions, and the
        kept set is type-diverse: at most one candidate per vis type until
        every good type is represented, capped at ``max_vis_per_query``.
        This mirrors nvBench's composition, where one SQL query typically
        yields a small number of *different* chart types.
        """
        with traced(self.tracer, "candidates") as candidates_span:
            candidates = generate_candidates(query, database, self.tree_config)
            candidates_span.set_attribute("candidates_enumerated", len(candidates))
        with traced(self.tracer, "featurize"):
            featurized = []
            for candidate in candidates:
                features = extract_features(candidate.vis, database, cache=self.cache)
                if features is not None:
                    featurized.append((candidate, features))
        with traced(self.tracer, "score"):
            scores = self.chart_filter.score_batch(
                [features for _, features in featurized]
            )
        scored = []
        for (candidate, _), score in zip(featurized, scores):
            if score >= 0.5:
                rank = (
                    score * _TYPE_PRIOR[candidate.vis.vis_type]
                    - 0.15 * len(candidate.edit.deleted_attrs)
                )
                scored.append((rank, len(scored), candidate))
        with traced(self.tracer, "select") as select_span:
            kept = self._select_diverse(scored)
            select_span.set_attribute("candidates_kept", len(kept))
        return kept

    def _select_diverse(self, scored: List[tuple]) -> List[VisCandidate]:
        """Greedy type-diverse selection over ``(rank, index, candidate)``.

        The repeat discount only depends on how many charts of a type are
        already kept, so candidates are pre-sorted once *per type* and the
        loop compares only the head of each type's list — O(n log n)
        overall instead of re-sorting the whole pool every pick.
        """
        by_type: dict = {}
        for entry in scored:
            by_type.setdefault(entry[2].vis.vis_type, []).append(entry)
        for entries in by_type.values():
            entries.sort(key=lambda entry: (-entry[0], entry[1]))
        heads = dict.fromkeys(by_type, 0)
        kept: List[VisCandidate] = []
        taken: set = set()
        type_counts: dict = {}
        while len(kept) < self.max_vis_per_query:
            best = None
            best_key = None
            for vis_type, entries in by_type.items():
                position = heads[vis_type]
                if position >= len(entries):
                    continue
                rank, index, candidate = entries[position]
                discounted = rank * _REPEAT_DISCOUNT ** type_counts.get(vis_type, 0)
                key = (discounted, -index)
                if best_key is None or key > best_key:
                    best_key = key
                    best = (vis_type, discounted, candidate)
            if best is None:
                break
            vis_type, discounted, candidate = best
            heads[vis_type] += 1
            # Beyond the first pick, only keep clearly good charts — the
            # paper's filter keeps well under two vis per SQL query.
            if kept and discounted < self.second_slot_threshold:
                break
            # Avoid near-duplicates: one chart per (type, x-axis) pair.
            key = (candidate.vis.vis_type, candidate.vis.primary_core.select[0])
            if key in taken:
                continue
            taken.add(key)
            type_counts[vis_type] = type_counts.get(vis_type, 0) + 1
            kept.append(candidate)
        return kept
