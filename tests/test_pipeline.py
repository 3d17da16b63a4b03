"""Tests for the staged copilot (`repro.pipeline`).

Covers the router's schema-linking ranking, the verifier's
pass/near-miss/fail classification, every repair rule family, the
budget guardrails under an injected fake clock (stage timeouts produce
partial results, row caps truncate, disabled repair reports near-misses
instead of dropping them), and the end-to-end span-per-stage trace
shape on a real run.
"""

from __future__ import annotations

import re

import pytest

from repro.baselines.common import match_columns
from repro.grammar.ast_nodes import Attribute, QueryCore, VisQuery
from repro.grammar.serialize import from_tokens
from repro.obs import InMemoryExporter, Tracer
from repro.pipeline import (
    DECODED,
    FAIL,
    NEAR_MISS,
    PASS,
    REPAIR_PENALTY,
    STAGES,
    Budget,
    BudgetClock,
    Generator,
    Pipeline,
    PipelineCandidate,
    Repairer,
    Router,
    Verifier,
)
from repro.nlp.tokenize import tokenize_nl
from repro.pipeline.route import _STOPWORDS
from repro.serve import BaselineTranslator
from repro.storage.schema import Column, Database, Table


def _tree(text: str) -> VisQuery:
    return from_tokens(text.split())


def _candidate(text: str, score: float = 0.0) -> PipelineCandidate:
    tokens = text.split()
    return PipelineCandidate(tokens=tokens, score=score, tree=from_tokens(tokens))


@pytest.fixture()
def pets_db() -> Database:
    """A second database whose schema shares nothing with flights."""
    pet = Table("pet", (Column("species", "C"), Column("weight", "Q")))
    pet.extend([("dog", 12.0), ("cat", 4.0), ("dog", 9.0)])
    db = Database(name="pets", domain="pet")
    db.add_table(pet)
    return db


class FakeClock:
    """Deterministic stand-in for ``time.perf_counter`` (seconds)."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


class SlowVerifier(Verifier):
    """A verifier that burns fake wall-clock per candidate."""

    def __init__(self, clock: FakeClock, cost_s: float):
        super().__init__()
        self._clock = clock
        self._cost_s = cost_s

    def verify(self, candidate, database):
        self._clock.advance(self._cost_s)
        return super().verify(candidate, database)


class StubGenerator:
    """Generate stage returning fixed candidates (fresh objects per run)."""

    def __init__(self, texts):
        self.texts = list(texts)

    def generate(self, question, database, n):
        return [_candidate(text, score=float(i)) for i, text in enumerate(self.texts)]


class TestBudget:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            Budget(k=0)
        with pytest.raises(ValueError):
            Budget(total_ms=0)
        with pytest.raises(ValueError):
            Budget(stage_ms=-1)
        with pytest.raises(ValueError):
            Budget(max_rows=0)
        with pytest.raises(ValueError):
            Budget(max_executions=0)

    def test_clock_latches_first_exhausted_stage(self):
        clock = FakeClock()
        budget_clock = BudgetClock(Budget(stage_ms=50), clock=clock)
        budget_clock.start_stage("verify")
        assert not budget_clock.exhausted()
        clock.advance(0.06)
        assert budget_clock.exhausted()
        assert budget_clock.timed_out == "verify"
        budget_clock.start_stage("execute")
        clock.advance(0.06)
        assert budget_clock.exhausted()
        assert budget_clock.timed_out == "verify", "first stage stays latched"
        budget_clock.end_stage()
        assert set(budget_clock.stage_timings) == {"verify", "execute"}

    def test_total_budget_counts_across_stages(self):
        clock = FakeClock()
        budget_clock = BudgetClock(Budget(total_ms=100), clock=clock)
        budget_clock.start_stage("route")
        clock.advance(0.07)
        assert not budget_clock.exhausted()
        budget_clock.start_stage("generate")
        clock.advance(0.07)
        assert budget_clock.exhausted()
        assert budget_clock.timed_out == "generate"


class TestRouter:
    def test_ranks_matching_schema_first(self, flight_db, pets_db):
        routes = Router().route(
            "how many flights from each origin?",
            {"pets": pets_db, "flights": flight_db},
        )
        assert [r.db_name for r in routes] == ["flights", "pets"]
        assert routes[0].score > routes[1].score
        assert "flight.origin" in routes[0].matched_columns
        assert "flight" in routes[0].matched_tables

    def test_deterministic_tiebreak_on_name(self, flight_db, pets_db):
        routes = Router().route("hello there", {"pets": pets_db, "flights": flight_db})
        assert routes[0].score == routes[1].score == 0.0
        assert [r.db_name for r in routes] == ["flights", "pets"]

    def test_rank_tables_prefers_mentioned_table(self, flight_db):
        ranked = Router().rank_tables("airline names please", flight_db)
        assert ranked[0] == "airline"

    def test_indexed_ranking_equals_a_plain_scan(self, small_nvbench):
        """One router over the whole test corpus (its schema index built
        once) ranks every question exactly as a direct scan does."""
        databases = small_nvbench.databases
        router = Router()
        for pair in small_nvbench.pairs:
            routes = router.route(pair.nl, databases)
            assert [
                (r.db_name, r.score, r.matched_columns, r.matched_tables,
                 r.token_overlap)
                for r in routes
            ] == _plain_route(pair.nl, databases)
            database = databases[pair.db_name]
            assert router.rank_tables(pair.nl, database) == _plain_rank_tables(
                pair.nl, database
            )

    def test_upper_case_table_name_is_not_a_mention(self):
        table = Table("Orders", (Column("order_id", "C"),))
        shop = Database(name="shop")
        shop.add_table(table)
        route = Router().score("show orders per order id", shop)
        assert route.matched_tables == []
        assert route.matched_columns == ["Orders.order_id"]


def _plain_route(question, databases):
    """The router's ranking by scanning every schema directly: one regex
    per column (``match_columns``) and per table, and the schema words
    rebuilt per call."""
    lowered = question.lower()
    tokens = [
        token for token in tokenize_nl(question)
        if token.isalpha() and token not in _STOPWORDS
    ]
    rows = []
    for database in databases.values():
        columns = [
            f"{table}.{column.name}"
            for table, matched in sorted(match_columns(question, database).items())
            for column in matched
        ]
        tables = [
            name for name in sorted(database.tables)
            if re.search(rf"\b{re.escape(name.replace('_', ' '))}", lowered)
        ]
        vocab = set()
        for table_name, column in database.iter_columns():
            vocab.update(table_name.lower().split("_"))
            vocab.update(column.name.lower().split("_"))
        overlap = (
            sum(1 for token in tokens if token in vocab) / len(tokens)
            if tokens else 0.0
        )
        score = 2.0 * len(columns) + 1.5 * len(tables) + 1.0 * overlap
        rows.append((database.name, score, columns, tables, overlap))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


def _plain_rank_tables(question, database):
    lowered = question.lower()
    matches = match_columns(question, database)
    ranked = []
    for name in database.tables:
        hits = float(len(matches.get(name, [])))
        if re.search(rf"\b{re.escape(name.replace('_', ' '))}", lowered):
            hits += 1.5
        ranked.append((-hits, name))
    ranked.sort()
    return [name for _, name in ranked]


class TestVerifier:
    def test_legal_chart_passes(self, flight_db):
        candidate = _candidate(
            "visualize bar select flight.origin , count ( flight.* )"
            " group grouping flight.origin"
        )
        assert Verifier().verify(candidate, flight_db).status == PASS
        assert candidate.violations == []

    def test_illegal_vis_type_is_near_miss(self, flight_db):
        candidate = _candidate(
            "visualize scatter select flight.origin , count ( flight.* )"
            " group grouping flight.origin"
        )
        Verifier().verify(candidate, flight_db)
        assert candidate.status == NEAR_MISS
        codes = [v.code for v in candidate.violations]
        assert codes == ["illegal-vis-type"]
        assert "bar" in candidate.violations[0].legal_types

    def test_unparsed_candidate_fails_with_parse_error(self, flight_db):
        candidate = PipelineCandidate(
            tokens=["garbage"], score=0.0, error="no parse"
        )
        Verifier().verify(candidate, flight_db)
        assert candidate.status == FAIL
        assert candidate.violations[0].code == "parse-error"
        assert not candidate.violations[0].repairable

    def test_grammar_breakage_fails(self, flight_db):
        # A bar chart carrying three select attributes breaks the
        # grammar's arity rule — built directly since the token parser
        # refuses to produce it.
        bad = VisQuery(
            vis_type="bar",
            body=QueryCore(
                select=(
                    Attribute(column="origin", table="flight"),
                    Attribute(column="price", table="flight"),
                    Attribute(column="destination", table="flight"),
                )
            ),
        )
        candidate = PipelineCandidate(tokens=[], score=0.0, tree=bad)
        Verifier().verify(candidate, flight_db)
        assert candidate.status == FAIL
        assert candidate.violations[0].code == "grammar"

    def test_two_bare_categoricals_fail_unrepairably(self, flight_db):
        candidate = _candidate(
            "visualize bar select flight.origin , flight.destination"
        )
        Verifier().verify(candidate, flight_db)
        assert candidate.status == FAIL
        assert candidate.violations[0].code == "illegal-combination"
        assert not candidate.violations[0].repairable

    def test_unknown_literal_is_near_miss(self, flight_db):
        candidate = _candidate(
            'visualize bar select flight.origin , flight.price'
            ' filter = flight.origin "APX"'
        )
        Verifier().verify(candidate, flight_db)
        assert candidate.status == NEAR_MISS
        assert [v.code for v in candidate.violations] == ["unknown-literal"]


class TestRepairer:
    def test_snaps_illegal_vis_type_to_nearest_legal(self, flight_db):
        candidate = _candidate("visualize scatter select flight.origin , flight.price")
        Verifier().verify(candidate, flight_db)
        assert candidate.status == NEAR_MISS
        fixed = Repairer().repair(candidate, "", flight_db)
        assert fixed is not None
        assert fixed.tree.vis_type == "bar"
        assert fixed.status == PASS
        assert fixed.repaired
        assert fixed.score == candidate.score + REPAIR_PENALTY
        # the original near-miss is untouched
        assert candidate.status == NEAR_MISS and not candidate.repaired

    def test_fuzzy_matches_unknown_literal(self, flight_db):
        candidate = _candidate(
            'visualize bar select flight.origin , flight.price'
            ' filter = flight.origin "APX"'
        )
        Verifier().verify(candidate, flight_db)
        fixed = Repairer().repair(candidate, "", flight_db)
        assert fixed is not None and fixed.status == PASS
        literal = fixed.tree.primary_core.filter.root.value
        assert literal in {"APG", "LAX", "BOS"}
        assert any("literal" in note for note in fixed.repairs)

    def test_bad_aggregate_snaps_to_count_and_conforms(self, flight_db):
        # avg over a categorical column corrupts the signature itself
        # (illegal-combination caused by the aggregate) — repair must
        # fix the aggregate and rebuild the layout.
        candidate = _candidate("visualize bar select flight.origin , avg ( flight.fno )")
        Verifier().verify(candidate, flight_db)
        assert candidate.status == NEAR_MISS
        fixed = Repairer().repair(candidate, "", flight_db)
        assert fixed is not None and fixed.status == PASS
        assert any("-> count" in note for note in fixed.repairs)
        measure = fixed.tree.primary_core.select[1]
        assert measure.agg == "count"

    def test_fixes_bin_unit_for_temporal_column(self, flight_db):
        candidate = _candidate(
            "visualize bar select flight.departure_date , count ( flight.* )"
            " group binning flight.departure_date by numeric"
        )
        Verifier().verify(candidate, flight_db)
        assert [v.code for v in candidate.violations] == ["bin-unit"]
        fixed = Repairer().repair(candidate, "", flight_db)
        assert fixed is not None and fixed.status == PASS
        group = fixed.tree.primary_core.groups[0]
        assert group.bin_unit == "year"

    def test_unrepairable_candidates_return_none(self, flight_db):
        candidate = _candidate("visualize bar select flight.origin , flight.destination")
        Verifier().verify(candidate, flight_db)
        assert Repairer().repair(candidate, "", flight_db) is None
        assert Repairer().repair(
            PipelineCandidate(tokens=[], score=0.0, error="x"), "", flight_db
        ) is None


PASS_BAR = (
    "visualize bar select flight.origin , count ( flight.* )"
    " group grouping flight.origin"
)
PASS_PIE = (
    "visualize pie select flight.origin , count ( flight.* )"
    " group grouping flight.origin"
)
NEAR_MISS_SCATTER = "visualize scatter select flight.origin , flight.price"


def _pipeline(flight_db, texts, **kwargs):
    kwargs.setdefault("generator", StubGenerator(texts))
    return Pipeline({"flights": flight_db}, **kwargs)


class TestPipelineGuardrails:
    def test_stage_timeout_yields_partial_result(self, flight_db):
        clock = FakeClock()
        pipeline = _pipeline(
            flight_db,
            [PASS_BAR, PASS_PIE, NEAR_MISS_SCATTER],
            budget=Budget(stage_ms=150),
            clock=clock,
            verifier=SlowVerifier(clock, cost_s=0.1),
        )
        result = pipeline.run("flights per origin", "flights")
        assert result.timed_out == "verify"
        assert result.partial
        # two candidates verified before the deadline; the third is
        # reported still-decoded, not dropped
        statuses = [c.status for c in result.candidates]
        assert statuses.count(DECODED) == 1
        assert result.counters["verify_pass"] == 2
        assert set(result.stage_timings) == set(STAGES)
        assert result.stage_timings["verify"] >= 200.0

    def test_row_cap_truncates_execution(self, flight_db):
        pipeline = _pipeline(
            flight_db, [PASS_BAR], budget=Budget(max_rows=2)
        )
        result = pipeline.run("flights per origin", "flights")
        execution = result.candidates[0].execution
        assert execution.truncated
        assert execution.rows == 2
        assert result.counters["execution_truncations"] == 1
        assert result.candidates[0].valid, "truncated is still servable"

    def test_max_executions_skips_the_rest(self, flight_db):
        pipeline = _pipeline(
            flight_db, [PASS_BAR, PASS_PIE], budget=Budget(max_executions=1)
        )
        result = pipeline.run("flights per origin", "flights")
        assert result.counters["executions"] == 1
        assert result.counters["execution_skips"] == 1
        skipped = [
            c for c in result.candidates
            if c.execution is not None and c.execution.skipped
        ]
        assert len(skipped) == 1 and not skipped[0].valid

    def test_repair_disabled_reports_near_misses(self, flight_db):
        pipeline = _pipeline(
            flight_db, [PASS_BAR, NEAR_MISS_SCATTER], budget=Budget(repair=False)
        )
        result = pipeline.run("flights per origin", "flights")
        assert result.counters["repairs_attempted"] == 0
        near_misses = [c for c in result.candidates if c.status == NEAR_MISS]
        assert len(near_misses) == 1
        assert near_misses[0].violations, "verdict travels with the candidate"
        assert not any(c.repaired for c in result.candidates)

    def test_repair_enabled_appends_fixed_candidate(self, flight_db):
        pipeline = _pipeline(flight_db, [NEAR_MISS_SCATTER])
        result = pipeline.run("flights per origin", "flights")
        assert result.counters["repairs_attempted"] == 1
        assert result.counters["repairs_succeeded"] == 1
        repaired = [c for c in result.candidates if c.repaired]
        assert len(repaired) == 1
        assert repaired[0].valid, "repaired candidate executed within budget"
        # both the fix and the original near-miss are reported
        assert any(c.status == NEAR_MISS and not c.repaired for c in result.candidates)

    def test_repaired_total_distinguishes_born_legal(self, flight_db):
        pipeline = _pipeline(flight_db, [PASS_BAR, NEAR_MISS_SCATTER])
        result = pipeline.run("flights per origin", "flights")
        assert result.counters["repaired_total"] == 1
        assert result.counters["born_legal_total"] == 1

    def test_repaired_total_zero_without_repairs(self, flight_db):
        pipeline = _pipeline(flight_db, [PASS_BAR, PASS_PIE])
        result = pipeline.run("flights per origin", "flights")
        assert result.counters["repaired_total"] == 0
        assert result.counters["born_legal_total"] == 2

    def test_unknown_database_raises(self, flight_db):
        pipeline = _pipeline(flight_db, [PASS_BAR])
        with pytest.raises(KeyError):
            pipeline.run("anything", "nope")


class TestPipelineEndToEnd:
    def test_one_span_per_stage(self, flight_db, pets_db):
        exporter = InMemoryExporter()
        pipeline = Pipeline(
            {"flights": flight_db, "pets": pets_db},
            StubGenerator([PASS_BAR, PASS_PIE]),
            tracer=Tracer(exporter=exporter),
        )
        result = pipeline.run("how many flights from each origin?")
        names = [record["name"] for record in exporter.records()]
        for stage in STAGES:
            assert names.count(stage) == 1, names
        assert names.count("pipeline") == 1
        root = [r for r in exporter.records() if r["name"] == "pipeline"][0]
        assert result.trace_id == root["trace_id"]
        assert all(
            record["trace_id"] == root["trace_id"] for record in exporter.records()
        )

    def test_routes_to_matching_database(self, flight_db, pets_db):
        pipeline = Pipeline(
            {"flights": flight_db, "pets": pets_db},
            StubGenerator([PASS_BAR]),
        )
        result = pipeline.run("how many flights from each origin?")
        assert result.routed
        assert result.db_name == "flights"
        assert [r.db_name for r in result.routes][0] == "flights"

    def test_ambiguous_question_yields_distinct_charts(self, flight_db):
        pipeline = _pipeline(flight_db, [PASS_BAR, PASS_PIE, PASS_BAR])
        result = pipeline.run("flights per origin", "flights")
        assert result.ambiguous
        charts = result.charts
        assert len(charts) == 2, "duplicate bar collapsed"
        assert len({c.vis_text for c in charts}) == 2
        assert all(c.valid for c in charts)

    def test_counters_reach_metrics_sink(self, flight_db):
        class Sink:
            def __init__(self):
                self.seen = {}

            def count(self, name, amount=1):
                self.seen[name] = self.seen.get(name, 0) + amount

        sink = Sink()
        pipeline = _pipeline(flight_db, [PASS_BAR, NEAR_MISS_SCATTER], metrics=sink)
        pipeline.run("flights per origin", "flights")
        assert sink.seen["pipeline_verify_pass"] == 1
        assert sink.seen["pipeline_verify_near_miss"] == 1
        assert sink.seen["pipeline_repairs_succeeded"] == 1
        assert "pipeline_verify_fail" not in sink.seen, "zero counters not emitted"

    def test_deepeye_generator_end_to_end(self, flight_db):
        pipeline = Pipeline(
            {"flights": flight_db},
            Generator(BaselineTranslator.from_name("deepeye")),
            budget=Budget(k=3),
        )
        result = pipeline.run("how many flights per origin?", "flights")
        assert result.charts, "baseline should produce at least one valid chart"
        assert result.counters["executions"] >= 1
        payload = result.to_json()
        assert payload["db"] == "flights"
        assert payload["candidates"]
        assert payload["timed_out"] is None
