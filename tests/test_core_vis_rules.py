"""Tests for the Table 1 chart-validity rules, axis arrangement, and
the validating side (:func:`validate_chart`)."""

from repro.core.vis_rules import (
    GROUP_BINNING,
    GROUP_GROUPING,
    GROUP_NONE,
    arrange_axes,
    chart_specs_for,
    validate_chart,
)
from repro.grammar.ast_nodes import Attribute
from repro.grammar.serialize import from_tokens


def _attr(col):
    return Attribute(column=col, table="t")


class TestChartSpecsFor:
    def test_one_categorical(self):
        types = {spec.vis_type for spec in chart_specs_for(["C"])}
        assert types == {"bar", "pie"}
        assert all(spec.count_measure for spec in chart_specs_for(["C"]))

    def test_one_temporal_allows_line(self):
        types = {spec.vis_type for spec in chart_specs_for(["T"])}
        assert types == {"bar", "pie", "line"}

    def test_one_quantitative_is_histogram(self):
        specs = chart_specs_for(["Q"])
        assert [spec.vis_type for spec in specs] == ["bar"]
        assert specs[0].x_group == GROUP_BINNING

    def test_two_categorical_is_invalid(self):
        assert chart_specs_for(["C", "C"]) == []

    def test_signature_is_order_insensitive(self):
        assert chart_specs_for(["Q", "C"]) == chart_specs_for(["C", "Q"])

    def test_qq_is_scatter_only(self):
        specs = chart_specs_for(["Q", "Q"])
        assert [spec.vis_type for spec in specs] == ["scatter"]
        assert specs[0].x_group == GROUP_NONE

    def test_three_variable_rules(self):
        assert {s.vis_type for s in chart_specs_for(["T", "Q", "C"])} == {
            "grouping line",
            "stacked bar",
        }
        assert {s.vis_type for s in chart_specs_for(["C", "Q", "C"])} == {"stacked bar"}
        assert {s.vis_type for s in chart_specs_for(["Q", "Q", "C"])} == {
            "grouping scatter"
        }

    def test_unknown_signature_empty(self):
        assert chart_specs_for(["T", "T"]) == []
        assert chart_specs_for(["C", "C", "C"]) == []

    def test_grouped_specs_need_aggregate(self):
        for spec in chart_specs_for(["C", "Q"]):
            if spec.x_group == GROUP_GROUPING:
                assert spec.needs_aggregate
            if spec.x_group == GROUP_NONE:
                assert not spec.needs_aggregate


class TestArrangeAxes:
    def test_cq_bar_puts_category_on_x(self):
        spec = [s for s in chart_specs_for(["C", "Q"]) if s.x_group == GROUP_GROUPING][0]
        axes = arrange_axes([(_attr("amount"), "Q"), (_attr("city"), "C")], spec)
        assert axes[0].column == "city"
        assert axes[1].column == "amount"

    def test_tq_line_puts_time_on_x(self):
        spec = [s for s in chart_specs_for(["Q", "T"]) if s.vis_type == "line"][0]
        axes = arrange_axes([(_attr("price"), "Q"), (_attr("day"), "T")], spec)
        assert axes[0].column == "day"

    def test_stacked_bar_axis_roles(self):
        spec = [s for s in chart_specs_for(["C", "Q", "C"])][0]
        axes = arrange_axes(
            [(_attr("region"), "C"), (_attr("sales"), "Q"), (_attr("category"), "C")],
            spec,
        )
        assert axes[1].column == "sales"
        assert {axes[0].column, axes[2].column} == {"region", "category"}

    def test_grouping_scatter_puts_categorical_on_color(self):
        spec = chart_specs_for(["Q", "Q", "C"])[0]
        axes = arrange_axes(
            [(_attr("x1"), "Q"), (_attr("kind"), "C"), (_attr("x2"), "Q")], spec
        )
        assert axes[2].column == "kind"

    def test_binned_charts_bin_time_even_when_measure_comes_first(self):
        # Q-first select lists must still bin the T column and leave the
        # Q column as the measure Table 1 aggregates.
        for vis_type in ("bar", "line", "pie"):
            spec = [
                s for s in chart_specs_for(["Q", "T"])
                if s.vis_type == vis_type and s.x_group == GROUP_BINNING
            ][0]
            for ordered in (
                [(_attr("price"), "Q"), (_attr("day"), "T")],
                [(_attr("day"), "T"), (_attr("price"), "Q")],
            ):
                axes = arrange_axes(ordered, spec)
                assert [a.column for a in axes] == ["day", "price"], vis_type

    def test_grouping_line_time_x_category_color(self):
        spec = [s for s in chart_specs_for(["T", "Q", "C"]) if s.vis_type == "grouping line"][0]
        axes = arrange_axes(
            [(_attr("country"), "C"), (_attr("cases"), "Q"), (_attr("day"), "T")], spec
        )
        assert axes[0].column == "day"
        assert axes[1].column == "cases"
        assert axes[2].column == "country"


def _query(text):
    return from_tokens(text.split())


class TestValidateChart:
    def test_legal_chart_passes(self, flight_db):
        validation = validate_chart(
            _query(
                "visualize bar select flight.origin , count ( flight.* )"
                " group grouping flight.origin"
            ),
            flight_db,
        )
        assert validation.ok
        assert validation.status == validation.PASS
        assert validation.signature == ("C",)

    def test_illegal_vis_type_names_legal_alternatives(self, flight_db):
        validation = validate_chart(
            _query(
                "visualize scatter select flight.origin , count ( flight.* )"
                " group grouping flight.origin"
            ),
            flight_db,
        )
        assert validation.codes() == ["illegal-vis-type"]
        assert validation.status == validation.NEAR_MISS
        assert set(validation.violations[0].legal_types) == {"bar", "pie"}
        assert validation.legal_types == ("bar", "pie")

    def test_group_mismatch_when_layout_breaks_spec(self, flight_db):
        # Legal type (bar on C+Q) but an aggregate without its grouping.
        validation = validate_chart(
            _query("visualize bar select flight.origin , sum ( flight.price )"),
            flight_db,
        )
        assert "group-mismatch" in validation.codes()
        assert validation.status == validation.NEAR_MISS

    def test_bad_aggregate_over_categorical(self, flight_db):
        validation = validate_chart(
            _query(
                "visualize bar select flight.origin , avg ( flight.fno )"
            ),
            flight_db,
        )
        # avg(C) corrupts the signature: illegal-combination, but
        # repairable because the aggregate caused it.
        assert validation.codes() == ["illegal-combination", "bad-aggregate"]
        assert validation.status == validation.NEAR_MISS
        assert validation.violations[0].repairable

    def test_bare_illegal_combination_is_unrepairable(self, flight_db):
        validation = validate_chart(
            _query("visualize bar select flight.origin , flight.destination"),
            flight_db,
        )
        assert validation.codes() == ["illegal-combination"]
        assert validation.status == validation.FAIL
        assert not validation.violations[0].repairable

    def test_bin_unit_mismatches(self, flight_db):
        temporal = validate_chart(
            _query(
                "visualize bar select flight.departure_date , count ( flight.* )"
                " group binning flight.departure_date by numeric"
            ),
            flight_db,
        )
        assert "bin-unit" in temporal.codes()
        quantitative = validate_chart(
            _query(
                "visualize bar select flight.price , count ( flight.* )"
                " group binning flight.price by year"
            ),
            flight_db,
        )
        assert "bin-unit" in quantitative.codes()

    def test_unknown_literal_and_the_check_toggle(self, flight_db):
        query = _query(
            'visualize bar select flight.origin , flight.price'
            ' filter = flight.origin "APX"'
        )
        checked = validate_chart(query, flight_db)
        assert checked.codes() == ["unknown-literal"]
        assert checked.violations[0].value == "APX"
        unchecked = validate_chart(query, flight_db, check_literals=False)
        assert unchecked.ok

    def test_case_insensitive_literal_passes(self, flight_db):
        validation = validate_chart(
            _query(
                'visualize bar select flight.origin , flight.price'
                ' filter = flight.origin "apg"'
            ),
            flight_db,
        )
        assert validation.ok

    def test_unknown_column_fails(self, flight_db):
        validation = validate_chart(
            _query("visualize bar select flight.altitude , flight.price"),
            flight_db,
        )
        assert validation.codes() == ["unknown-column"]
        assert validation.status == validation.FAIL

    def test_to_json_shape(self, flight_db):
        payload = validate_chart(
            _query("visualize scatter select flight.origin , flight.price"),
            flight_db,
        ).to_json()
        assert payload["status"] == "near_miss"
        assert payload["signature"] == ["C", "Q"]
        assert payload["violations"][0]["code"] == "illegal-vis-type"
