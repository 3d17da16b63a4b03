"""Trace analysis: span trees and per-stage latency breakdowns.

Consumes the JSONL records a :class:`~repro.obs.export.JsonlExporter`
wrote and renders them for humans — ``repro trace summarize`` is a thin
CLI wrapper over :func:`summarize`.  Two views:

* the **span tree** — parent/child structure with durations, where
  repeated siblings (e.g. one ``pair`` span per corpus pair) collapse
  into one ``name ×N`` line so a 500-pair build stays readable;
* the **stage table** — per-name call counts, total/mean/max latency,
  and error counts across the whole export, read from the same
  :class:`~repro.obs.aggregate.SpanAggregator` that computes the
  ``--profile`` reports of the build and training runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.aggregate import SpanAggregator


class SpanNode:
    """One span record plus its resolved children."""

    __slots__ = ("record", "children")

    def __init__(self, record: dict):
        self.record = record
        self.children: List["SpanNode"] = []

    @property
    def name(self) -> str:
        """Span name ("" tolerated for malformed records)."""
        return self.record.get("name", "")

    @property
    def duration_ms(self) -> float:
        """Duration in ms (0.0 when the span never ended)."""
        return float(self.record.get("duration_ms") or 0.0)

    @property
    def failed(self) -> bool:
        """True when the span ended in error status."""
        return self.record.get("status") == "error"


def span_tree(records: List[dict]) -> Dict[str, List[SpanNode]]:
    """Resolve parent links: trace id → that trace's root nodes.

    A span whose parent never appears in the export (it happened in a
    process that did not ship it, or the file was truncated) is treated
    as a root of its trace rather than dropped.
    """
    nodes: Dict[Tuple[str, str], SpanNode] = {}
    for record in records:
        key = (record.get("trace_id", ""), record.get("span_id", ""))
        nodes[key] = SpanNode(record)
    roots: Dict[str, List[SpanNode]] = {}
    for (trace_id, _), node in nodes.items():
        parent_key = (trace_id, node.record.get("parent_id") or "")
        parent = nodes.get(parent_key)
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.setdefault(trace_id, []).append(node)
    for node in nodes.values():
        node.children.sort(key=_start_key)
    for trace_roots in roots.values():
        trace_roots.sort(key=_start_key)
    return roots


def _start_key(node: SpanNode) -> Tuple[float, str]:
    return (
        float(node.record.get("start_unix") or 0.0),
        node.record.get("span_id", ""),
    )


# ----- span tree rendering -------------------------------------------------


def render_tree(
    roots: List[SpanNode], min_ms: float = 0.0, max_depth: Optional[int] = None
) -> str:
    """Indented tree with durations; repeated siblings collapse to ×N."""
    lines: List[str] = []
    _render_level(roots, lines, depth=0, min_ms=min_ms, max_depth=max_depth)
    return "\n".join(lines)


def _render_level(
    siblings: List[SpanNode],
    lines: List[str],
    depth: int,
    min_ms: float,
    max_depth: Optional[int],
) -> None:
    if max_depth is not None and depth >= max_depth:
        return
    groups: Dict[str, List[SpanNode]] = {}
    for node in siblings:
        groups.setdefault(node.name, []).append(node)
    for name, members in groups.items():
        total = sum(node.duration_ms for node in members)
        if total < min_ms and not any(node.failed for node in members):
            continue
        errors = sum(1 for node in members if node.failed)
        label = name if len(members) == 1 else f"{name} ×{len(members)}"
        suffix = ""
        if len(members) > 1:
            suffix = f"  (avg {total / len(members):8.2f} ms)"
        if errors:
            suffix += f"  [{errors} error{'s' if errors > 1 else ''}]"
        if len(members) == 1 and members[0].failed:
            suffix += f"  [error: {members[0].record.get('error')}]"
        lines.append(f"{'  ' * depth}{label:{max(40 - 2 * depth, 8)}s} "
                     f"{total:10.2f} ms{suffix}")
        merged = [child for node in members for child in node.children]
        merged.sort(key=_start_key)
        _render_level(merged, lines, depth + 1, min_ms, max_depth)


# ----- stage table ---------------------------------------------------------


def stage_table(records: List[dict]) -> List[Dict[str, object]]:
    """Per-name latency aggregate rows, sorted by total time descending."""
    spans = SpanAggregator()
    for record in records:
        spans.export(record)
    return spans.rows()


def render_stage_table(rows: List[Dict[str, object]]) -> str:
    """Fixed-width text table over :func:`stage_table` rows."""
    lines = [
        f"{'span':32s} {'calls':>7s} {'total ms':>12s} "
        f"{'mean ms':>10s} {'max ms':>10s} {'errors':>7s}"
    ]
    for row in rows:
        lines.append(
            f"{row['name']:32s} {row['calls']:7d} {row['total_ms']:12.2f} "
            f"{row['mean_ms']:10.2f} {row['max_ms']:10.2f} {row['errors']:7d}"
        )
    return "\n".join(lines)


def summarize(
    records: List[dict],
    trace_id: Optional[str] = None,
    min_ms: float = 0.0,
    max_depth: Optional[int] = None,
    max_traces: int = 5,
) -> str:
    """The full ``repro trace summarize`` document as one string.

    Renders up to *max_traces* span trees (longest root first — pass
    *trace_id* to pick one), then the per-stage table over every record
    in the export.
    """
    if not records:
        return "(no spans in export)"
    if trace_id is not None:
        records_shown = [r for r in records if r.get("trace_id") == trace_id]
        if not records_shown:
            known = sorted({r.get("trace_id") for r in records})
            return (
                f"trace {trace_id!r} not in export; "
                f"{len(known)} trace(s) present: {known[:10]}"
            )
    else:
        records_shown = records
    roots = span_tree(records_shown)
    ordered = sorted(
        roots.items(),
        key=lambda item: -max(node.duration_ms for node in item[1]),
    )
    sections: List[str] = []
    for shown, (tid, trace_roots) in enumerate(ordered):
        if shown >= max_traces:
            sections.append(
                f"... {len(ordered) - max_traces} more trace(s) omitted "
                f"(pass --trace-id to select one)"
            )
            break
        sections.append(
            f"trace {tid} ({_count_spans(trace_roots)} spans)\n"
            + render_tree(trace_roots, min_ms=min_ms, max_depth=max_depth)
        )
    n_traces = len({record.get("trace_id") for record in records})
    sections.append(
        f"stage breakdown ({len(records)} spans, {n_traces} trace(s))\n"
        + render_stage_table(stage_table(records))
    )
    return "\n\n".join(sections)


def _count_spans(roots: List[SpanNode]) -> int:
    count = 0
    stack = list(roots)
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count
