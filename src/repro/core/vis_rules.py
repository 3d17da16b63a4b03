"""Table 1: rules for syntactically correct charts.

Maps the column-type signature of a candidate attribute combination
(C categorical, T temporal, Q quantitative) to the chart specs that are
valid for it — which vis types, and which group/binning/aggregate
operations must be inserted.

One extension beyond the printed table: a single bare Q variable maps to
a binned histogram (``bar``), which the paper's corpus includes ("bar
(histogram)" in Section 3.2) but Table 1 leaves implicit.

Besides the generative side (:func:`chart_specs_for`, used by the
synthesizer's tree edits), this module exposes the *validating* side:
:func:`validate_chart` checks an already-built ``VisQuery`` against the
same rules and returns structured :class:`ChartViolation` records — the
basis of the pipeline's verify stage and of ``translate --candidates``
legality flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

#: group operations a chart spec may require on an axis
GROUP_NONE = "none"
GROUP_GROUPING = "grouping"
GROUP_BINNING = "binning"


@dataclass(frozen=True)
class ChartSpec:
    """One way to visualize an attribute combination.

    ``axes`` lists the roles in select order (x, y, optional color);
    ``x_group`` / ``color_group`` say which group operation the x/color
    attribute needs; ``needs_aggregate`` says whether the measure (y)
    axis must carry an aggregate function.
    """

    vis_type: str
    x_group: str
    needs_aggregate: bool
    color_group: str = GROUP_NONE
    count_measure: bool = False

    @property
    def arity(self) -> int:
        """Number of select attributes this chart type carries."""
        return 3 if self.vis_type in ("stacked bar", "grouping line", "grouping scatter") else 2


def chart_specs_for(signature: Sequence[str]) -> List[ChartSpec]:
    """Valid chart specs for a type *signature* (tuple of C/T/Q).

    The signature describes the *bare* attributes kept from the SQL
    select list, in any order; callers are responsible for arranging
    axes.  Returns an empty list for combinations Table 1 rejects
    (e.g. two categorical variables on a line chart).
    """
    key = tuple(sorted(signature))
    return list(_RULES.get(key, ()))


_RULES = {
    # --- one variable ---------------------------------------------------
    ("C",): (
        ChartSpec("bar", GROUP_GROUPING, True, count_measure=True),
        ChartSpec("pie", GROUP_GROUPING, True, count_measure=True),
    ),
    ("T",): (
        ChartSpec("bar", GROUP_BINNING, True, count_measure=True),
        ChartSpec("pie", GROUP_BINNING, True, count_measure=True),
        ChartSpec("line", GROUP_BINNING, True, count_measure=True),
    ),
    # Histogram extension: bin the quantitative axis, count per bin.
    ("Q",): (
        ChartSpec("bar", GROUP_BINNING, True, count_measure=True),
    ),
    # --- two variables --------------------------------------------------
    # Group-free specs come first: when both the plain and the grouped
    # chart are good, the simpler tree is the preferred candidate.
    ("C", "Q"): (
        ChartSpec("bar", GROUP_NONE, False),
        ChartSpec("pie", GROUP_NONE, False),
        ChartSpec("bar", GROUP_GROUPING, True),
        ChartSpec("pie", GROUP_GROUPING, True),
    ),
    ("Q", "T"): (
        ChartSpec("line", GROUP_NONE, False),
        ChartSpec("bar", GROUP_BINNING, True),
        ChartSpec("pie", GROUP_BINNING, True),
        ChartSpec("line", GROUP_BINNING, True),
    ),
    ("Q", "Q"): (
        ChartSpec("scatter", GROUP_NONE, False),
    ),
    # --- three variables ------------------------------------------------
    ("C", "Q", "T"): (
        ChartSpec("grouping line", GROUP_BINNING, True, color_group=GROUP_GROUPING),
        ChartSpec("stacked bar", GROUP_BINNING, True, color_group=GROUP_GROUPING),
    ),
    ("C", "C", "Q"): (
        ChartSpec("stacked bar", GROUP_GROUPING, True, color_group=GROUP_GROUPING),
    ),
    # Grouping scatter colors raw points by the categorical variable —
    # the color channel is an encoding, not a GROUP BY aggregation.
    ("C", "Q", "Q"): (
        ChartSpec("grouping scatter", GROUP_NONE, False, color_group=GROUP_NONE),
    ),
}


def arrange_axes(
    attrs_with_types: Sequence[Tuple[object, str]], spec: ChartSpec
) -> List[object]:
    """Order attributes into (x, y[, color]) roles for *spec*.

    Picks the x attribute by the type the spec's x-group operation makes
    sense for (T for binning-by-time, C for grouping, Q otherwise), the
    color attribute as the remaining categorical one for three-variable
    charts, and the measure as what is left.  A binned x axis always
    takes the T attribute when there is one, whatever the select order,
    so the measure left over is the Q column Table 1 aggregates.
    """
    remaining = list(attrs_with_types)

    def take(predicate) -> object:
        for index, (attr, ctype) in enumerate(remaining):
            if predicate(ctype):
                remaining.pop(index)
                return attr
        attr, _ = remaining.pop(0)
        return attr

    if spec.arity == 3:
        if spec.vis_type == "grouping scatter":
            color = take(lambda t: t == "C")
            x = take(lambda t: t == "Q")
            y = take(lambda t: True)
        else:
            x_type = "T" if spec.x_group == GROUP_BINNING else "C"
            x = take(lambda t: t == x_type)
            color = take(lambda t: t == "C")
            y = take(lambda t: True)
        return [x, y, color]
    if spec.x_group == GROUP_BINNING:
        x = take(lambda t: t == "T")
    elif spec.x_group == GROUP_GROUPING:
        x = take(lambda t: t == "C")
    else:
        x = take(lambda t: t in ("C", "T"))
    y = take(lambda t: True)
    return [x, y]


# ----- validation (the checking side of Table 1) ---------------------------


@dataclass(frozen=True)
class ChartViolation:
    """One structured way a chart breaks the Table-1 rules.

    ``repairable`` says whether the pipeline's repair stage has a rule
    for this violation class (snap the vis type, conform the group
    operations, fix a bin unit, fuzzy-match a literal); unrepairable
    violations (an attribute combination no chart type accepts, an
    unknown column) fail the candidate outright.
    """

    code: str
    message: str
    repairable: bool = True
    #: for ``illegal-vis-type``: the chart types Table 1 does allow
    legal_types: Tuple[str, ...] = ()
    #: qualified column the violation anchors to, when there is one
    attr: Optional[str] = None
    #: offending literal value, for ``unknown-literal``
    value: Optional[object] = None

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


@dataclass
class ChartValidation:
    """The outcome of :func:`validate_chart`: violations + a verdict."""

    violations: List[ChartViolation] = field(default_factory=list)
    #: the bare-attribute type signature the chart was judged against
    signature: Tuple[str, ...] = ()

    PASS, NEAR_MISS, FAIL = "pass", "near_miss", "fail"

    @property
    def ok(self) -> bool:
        """True when the chart satisfies every Table-1 rule."""
        return not self.violations

    @property
    def status(self) -> str:
        """``pass`` / ``near_miss`` (all violations repairable) / ``fail``."""
        if not self.violations:
            return self.PASS
        if all(violation.repairable for violation in self.violations):
            return self.NEAR_MISS
        return self.FAIL

    @property
    def legal_types(self) -> Tuple[str, ...]:
        """Chart types Table 1 allows for the judged signature."""
        return tuple(
            spec.vis_type
            for spec in dict.fromkeys(chart_specs_for(self.signature))
        )

    def codes(self) -> List[str]:
        """Violation codes in report order (handy for tests and CLIs)."""
        return [violation.code for violation in self.violations]

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "signature": list(self.signature),
            "violations": [
                {
                    "code": violation.code,
                    "message": violation.message,
                    "repairable": violation.repairable,
                    "legal_types": list(violation.legal_types),
                    "attr": violation.attr,
                    "value": violation.value,
                }
                for violation in self.violations
            ],
        }


def chart_signature(core, database) -> Tuple[Tuple[str, ...], List[tuple]]:
    """``(signature, per-attr info)`` of a query core's select list.

    The signature is the sorted C/T/Q type tuple of the *bare* content
    attributes — exactly what the synthesizer fed
    :func:`chart_specs_for` before inserting aggregates — so count
    measures (``count(*)`` or ``count(col)``) are excluded and other
    aggregated attributes contribute their column's type.  The info list
    carries ``(attr, ctype, is_count_measure)`` per select attribute in
    select order for callers that need the layout.
    """
    info: List[tuple] = []
    signature: List[str] = []
    for attr in core.select:
        is_count = attr.agg == "count"
        if attr.column == "*":
            ctype = "Q"
        else:
            ctype = database.column_type(attr.table, attr.column)
        info.append((attr, ctype, is_count))
        if not is_count:
            signature.append(ctype)
    return tuple(sorted(signature)), info


def validate_chart(query, database, check_literals: bool = True) -> ChartValidation:
    """Check a ``VisQuery`` against the Table-1 chart-validity rules.

    Structural well-formedness (arity, GROUP BY coverage) is the
    grammar's job (:func:`repro.grammar.validate.validate_query`); this
    judges *data-aware legality*: is the chart type legal for the select
    list's column-type signature, do the group/binning/aggregate
    operations match a legal :class:`ChartSpec`, are bin units sane for
    their column type, and (``check_literals``) do categorical filter
    literals actually occur in their column.  Returns a
    :class:`ChartValidation` whose ``status`` classifies the chart as
    ``pass`` / ``near_miss`` / ``fail`` — the pipeline's verify verdict.
    """
    validation = ChartValidation()
    core = query.primary_core
    try:
        signature, info = chart_signature(core, database)
    except Exception as exc:
        validation.violations.append(
            ChartViolation(
                code="unknown-column",
                message=str(exc),
                repairable=False,
            )
        )
        return validation
    validation.signature = signature

    specs = chart_specs_for(signature)
    if not specs:
        # A sum/avg over a non-quantitative column corrupts the
        # signature itself (avg(city) reads as a second C).  When that
        # is the cause, the combination is repairable: snapping the
        # aggregate to count removes it from the signature.
        _check_aggregates(core, database, validation)
        caused_by_aggregate = bool(validation.violations)
        validation.violations.insert(
            0,
            ChartViolation(
                code="illegal-combination",
                message=(
                    f"no chart type accepts the attribute signature "
                    f"{'+'.join(signature) or '(empty)'}"
                ),
                repairable=caused_by_aggregate,
            ),
        )
        return validation

    legal_types = tuple(dict.fromkeys(spec.vis_type for spec in specs))
    if query.vis_type not in legal_types:
        validation.violations.append(
            ChartViolation(
                code="illegal-vis-type",
                message=(
                    f"{query.vis_type!r} is illegal for signature "
                    f"{'+'.join(signature)}; legal: {', '.join(legal_types)}"
                ),
                legal_types=legal_types,
            )
        )
    else:
        matched = any(
            _spec_matches(spec, core, info) for spec in specs
            if spec.vis_type == query.vis_type
        )
        if not matched:
            validation.violations.append(
                ChartViolation(
                    code="group-mismatch",
                    message=(
                        f"group/aggregate layout does not match any legal "
                        f"{query.vis_type!r} spec for signature "
                        f"{'+'.join(signature)}"
                    ),
                    legal_types=legal_types,
                )
            )

    _check_aggregates(core, database, validation)
    _check_bin_units(core, database, validation)
    if check_literals:
        _check_literals(query, database, validation)
    return validation


def _group_kind_of(core, attr) -> str:
    """Which group operation (if any) covers *attr* in *core*."""
    for group in core.groups:
        if group.attr.qualified_name == attr.qualified_name:
            return group.kind
    return GROUP_NONE


def _spec_matches(spec: ChartSpec, core, info) -> bool:
    """Does the core's concrete layout realize *spec*?

    The synthesizer lays select lists out as (x, y[, color]) with the
    measure in the y slot; decoded trees are judged against the same
    layout.  A count-measure spec expects a count aggregate in the
    measure slot; other specs expect the x/color group kinds and the
    measure aggregation the spec demands.
    """
    if len(info) != spec.arity:
        return False
    x_attr, _, x_is_count = info[0]
    measure_attr, _, measure_is_count = info[1]
    if x_is_count:
        return False  # a count can never be the x axis
    if spec.count_measure != measure_is_count:
        return False
    if not spec.count_measure and spec.needs_aggregate != measure_attr.is_aggregated:
        return False
    if _group_kind_of(core, x_attr) != spec.x_group:
        return False
    if spec.arity == 3:
        color_attr, _, color_is_count = info[2]
        if color_is_count:
            return False
        if _group_kind_of(core, color_attr) != spec.color_group:
            return False
    return True


def _check_aggregates(core, database, validation: ChartValidation) -> None:
    """sum/avg over a categorical or temporal column is a type error."""
    for attr in core.select:
        if attr.agg in ("sum", "avg") and attr.column != "*":
            ctype = database.column_type(attr.table, attr.column)
            if ctype != "Q":
                validation.violations.append(
                    ChartViolation(
                        code="bad-aggregate",
                        message=(
                            f"{attr.agg}({attr.qualified_name}) aggregates a "
                            f"{ctype} column; only count applies"
                        ),
                        attr=attr.qualified_name,
                    )
                )


def _check_bin_units(core, database, validation: ChartValidation) -> None:
    """Temporal columns bin by calendar units, quantitative by width."""
    for group in core.groups:
        if group.kind != "binning":
            continue
        ctype = database.column_type(group.attr.table, group.attr.column)
        if ctype == "T" and group.bin_unit == "numeric":
            validation.violations.append(
                ChartViolation(
                    code="bin-unit",
                    message=(
                        f"temporal column {group.attr.qualified_name} "
                        f"cannot use numeric binning"
                    ),
                    attr=group.attr.qualified_name,
                )
            )
        elif ctype == "Q" and group.bin_unit != "numeric":
            validation.violations.append(
                ChartViolation(
                    code="bin-unit",
                    message=(
                        f"quantitative column {group.attr.qualified_name} "
                        f"cannot bin by {group.bin_unit!r}"
                    ),
                    attr=group.attr.qualified_name,
                )
            )
        elif ctype == "C":
            validation.violations.append(
                ChartViolation(
                    code="bin-unit",
                    message=(
                        f"categorical column {group.attr.qualified_name} "
                        f"cannot be binned (use grouping)"
                    ),
                    attr=group.attr.qualified_name,
                )
            )


def _check_literals(query, database, validation: ChartValidation) -> None:
    """Categorical equality literals should occur in their column.

    A decoded filter like ``city = 'Sam Francisco'`` is near-miss, not
    wrong — the repair stage fuzzy-matches it against the column's real
    values.  Only ``=``/``!=`` comparisons over categorical columns with
    non-empty string literals are checked; numeric and temporal
    thresholds are legitimate out-of-data values.
    """
    from repro.grammar.ast_nodes import Comparison

    for core in query.cores:
        if core.filter is None:
            continue
        for pred in core.filter.predicates():
            if not isinstance(pred, Comparison):
                continue
            if pred.op not in ("=", "!=") or not isinstance(pred.value, str):
                continue
            if not pred.value or pred.value == "<V>":
                continue
            try:
                if database.column_type(pred.attr.table, pred.attr.column) != "C":
                    continue
                values = database.table(pred.attr.table).column_values(
                    pred.attr.column
                )
            except Exception:
                continue
            if not values:
                continue
            known = {str(v).casefold() for v in values if v is not None}
            if pred.value.casefold() not in known:
                validation.violations.append(
                    ChartViolation(
                        code="unknown-literal",
                        message=(
                            f"{pred.attr.qualified_name} has no value "
                            f"{pred.value!r}"
                        ),
                        attr=pred.attr.qualified_name,
                        value=pred.value,
                    )
                )
