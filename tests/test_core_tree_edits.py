"""Tests for the tree-edit candidate generation (Section 2.3)."""

import pytest

from repro.core.tree_edits import TreeEditConfig, generate_candidates
from repro.grammar.ast_nodes import (
    Attribute,
    Comparison,
    Filter,
    Group,
    Order,
    QueryCore,
    SetQuery,
    SQLQuery,
    Superlative,
    VisQuery,
)
from repro.grammar.validate import validate_query
from repro.sqlparse import parse_sql


def attr(column, table="flight", agg=None):
    return Attribute(column=column, table=table, agg=agg)


class TestCandidateGeneration:
    def test_single_categorical_yields_count_charts(self, flight_db):
        query = SQLQuery(QueryCore(select=(attr("origin"),)))
        candidates = generate_candidates(query, flight_db)
        types = {c.vis.vis_type for c in candidates}
        assert types == {"bar", "pie"}
        for candidate in candidates:
            core = candidate.vis.primary_core
            assert core.select[1].agg == "count"
            assert core.groups[0].kind == "grouping"
            assert candidate.edit.added_count

    def test_candidates_are_always_valid(self, small_corpus):
        for pair in small_corpus.pairs:
            db = small_corpus.databases[pair.db_name]
            for candidate in generate_candidates(pair.query, db):
                validate_query(candidate.vis)

    def test_measure_first_select_never_aggregates_time(self, flight_db):
        from repro.core.vis_rules import validate_chart

        for sql in (
            "SELECT price, departure_date FROM flight",
            "SELECT departure_date, price FROM flight",
        ):
            query = parse_sql(sql, flight_db)
            candidates = generate_candidates(query, flight_db)
            assert any(c.vis.vis_type == "line" for c in candidates)
            for candidate in candidates:
                codes = [
                    violation.code for violation in
                    validate_chart(candidate.vis, flight_db).violations
                ]
                assert "bad-aggregate" not in codes, candidate.vis

    def test_filter_subtree_is_invariant(self, flight_db):
        query = parse_sql(
            "SELECT origin, price FROM flight WHERE price > 200", flight_db
        )
        for candidate in generate_candidates(query, flight_db):
            assert candidate.vis.primary_core.filter == query.cores[0].filter

    def test_existing_grouping_is_kept(self, flight_db):
        query = parse_sql(
            "SELECT origin, COUNT(*) FROM flight GROUP BY origin", flight_db
        )
        for candidate in generate_candidates(query, flight_db):
            group_columns = [g.attr.column for g in candidate.vis.primary_core.groups]
            assert "origin" in group_columns

    def test_superlative_attr_never_orphaned(self, flight_db):
        query = parse_sql(
            "SELECT fno, price FROM flight ORDER BY price DESC LIMIT 3", flight_db
        )
        for candidate in generate_candidates(query, flight_db):
            core = candidate.vis.primary_core
            if core.superlative is not None:
                names = {a.qualified_name for a in core.select}
                assert core.superlative.attr.qualified_name in names

    def test_order_deletion_variant_exists(self, flight_db):
        query = parse_sql(
            "SELECT origin, price FROM flight ORDER BY price ASC", flight_db
        )
        candidates = generate_candidates(query, flight_db)
        with_order = [c for c in candidates if c.vis.primary_core.order is not None]
        without_order = [c for c in candidates if c.vis.primary_core.order is None]
        assert with_order and without_order
        deleted = [c for c in without_order if c.edit.deleted_order is not None]
        assert deleted

    def test_temporal_binning_units_enumerated(self, flight_db):
        config = TreeEditConfig(temporal_units=("year", "month"))
        query = SQLQuery(QueryCore(select=(attr("departure_date"), attr("price"))))
        candidates = generate_candidates(query, flight_db, config)
        units = {
            g.bin_unit
            for c in candidates
            for g in c.vis.primary_core.groups
            if g.kind == "binning" and g.attr.column == "departure_date"
        }
        assert units == {"year", "month"}

    def test_numeric_histogram_candidate(self, flight_db):
        query = SQLQuery(QueryCore(select=(attr("price"),)))
        candidates = generate_candidates(query, flight_db)
        assert candidates
        for candidate in candidates:
            group = candidate.vis.primary_core.groups[0]
            assert group.kind == "binning" and group.bin_unit == "numeric"

    def test_deleted_attrs_recorded(self, flight_db):
        query = SQLQuery(QueryCore(select=(attr("origin"), attr("price"), attr("destination"))))
        candidates = generate_candidates(query, flight_db)
        two_attr = [c for c in candidates if len(c.vis.primary_core.select) == 2]
        assert any(len(c.edit.deleted_attrs) == 1 for c in two_attr)

    def test_aggregate_variants(self, flight_db):
        config = TreeEditConfig(aggregates=("sum", "avg", "max"))
        query = SQLQuery(QueryCore(select=(attr("origin"), attr("price"))))
        candidates = generate_candidates(query, flight_db, config)
        aggs = {
            c.vis.primary_core.select[1].agg
            for c in candidates
            if c.vis.primary_core.groups and not c.edit.added_count
        }
        assert {"sum", "avg", "max"} <= aggs

    def test_sorted_variant_for_bar(self, flight_db):
        query = SQLQuery(QueryCore(select=(attr("origin"), attr("price"))))
        candidates = generate_candidates(query, flight_db)
        sorted_bars = [
            c for c in candidates
            if c.vis.vis_type == "bar" and c.edit.added_order is not None
        ]
        assert sorted_bars
        assert all(c.vis.primary_core.order is not None for c in sorted_bars)

    def test_max_candidates_cap(self, flight_db):
        config = TreeEditConfig(max_candidates=3)
        query = SQLQuery(QueryCore(select=(attr("origin"), attr("price"), attr("departure_date"))))
        assert len(generate_candidates(query, flight_db, config)) <= 3

    def test_candidates_are_deduplicated(self, flight_db):
        query = SQLQuery(QueryCore(select=(attr("origin"), attr("price"))))
        candidates = generate_candidates(query, flight_db)
        trees = [c.vis for c in candidates]
        assert len(trees) == len(set(trees))


class TestSetQueryCandidates:
    def test_chartable_set_query(self, flight_db):
        left = QueryCore(
            select=(attr("fno"), attr("price")),
            filter=Filter(Comparison(">", attr("price"), 100)),
        )
        right = QueryCore(
            select=(attr("fno"), attr("price")),
            filter=Filter(Comparison("<", attr("price"), 600)),
        )
        query = SQLQuery(SetQuery("intersect", left, right))
        candidates = generate_candidates(query, flight_db)
        assert candidates
        for candidate in candidates:
            assert isinstance(candidate.vis.body, SetQuery)
            assert not candidate.edit.has_deletions

    def test_single_attr_set_query_has_no_charts(self, flight_db):
        left = QueryCore(select=(attr("origin"),))
        right = QueryCore(select=(attr("destination"),))
        query = SQLQuery(SetQuery("union", left, right))
        assert generate_candidates(query, flight_db) == []
