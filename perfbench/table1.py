"""The type rules of the paper's Table 1, restated for checking.

A chart is legal when its aggregates apply to column types they are
defined for (``sum`` and ``avg`` only to quantitative columns), its
binning suits the binned column (calendar units for temporal columns,
equal-width bins for quantitative ones, never a categorical column),
and its chart type is one Table 1 allows for the type signature of its
select list.  The signature counts every selected column by its type
(C categorical, T temporal, Q quantitative), except count measures.

The program's own checker lives in ``repro.core.vis_rules``; this copy
is kept apart on purpose, so that a fault in one shows against the
other.
"""

from __future__ import annotations

from typing import List

#: Table 1: chart types allowed per sorted type signature.  ``Q`` alone
#: is the histogram the paper's corpus includes ("bar (histogram)").
LEGAL_TYPES = {
    ("C",): ("bar", "pie"),
    ("T",): ("bar", "pie", "line"),
    ("Q",): ("bar",),
    ("C", "Q"): ("bar", "pie"),
    ("Q", "T"): ("line", "bar", "pie"),
    ("Q", "Q"): ("scatter",),
    ("C", "Q", "T"): ("grouping line", "stacked bar"),
    ("C", "C", "Q"): ("stacked bar",),
    ("C", "Q", "Q"): ("grouping scatter",),
}


def _ctype(database, attr) -> str:
    if attr.column == "*":
        return "Q"
    return database.tables[attr.table].column(attr.column).ctype


def violations(vis, database) -> List[str]:
    """Names of the Table-1 rules *vis* breaks over *database*."""
    core = vis.primary_core
    found = []
    for attr in core.select:
        if attr.agg in ("sum", "avg") and _ctype(database, attr) != "Q":
            found.append(f"{attr.agg}-of-{_ctype(database, attr)}")
    for group in core.groups:
        if group.kind != "binning":
            continue
        ctype = _ctype(database, group.attr)
        if ctype == "C" or (ctype == "T") == (group.bin_unit == "numeric"):
            found.append(f"bin-{group.bin_unit}-of-{ctype}")
    signature = tuple(sorted(
        _ctype(database, attr) for attr in core.select if attr.agg != "count"
    ))
    if vis.vis_type not in LEGAL_TYPES.get(signature, ()):
        found.append(f"{vis.vis_type}-for-{'+'.join(signature)}")
    return found
