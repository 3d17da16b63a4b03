"""Independent check of chart data against the standard library's sqlite3.

Each database is loaded into an in-memory sqlite3 database, each chart
whose data plain SQL can express (no binning) is written out as SQL by
this module, and sqlite's rows are compared with the rows the program's
executor returned.  The SQL is emitted here rather than by the program's
printer so that no program code stands between the chart and sqlite:
identifiers are quoted (one generated table is named ``transaction``)
and ``count(*)`` prints as ``COUNT(*)``.

The SQL mirrors the executor's documented semantics where SQL leaves a
choice: ``ORDER BY`` sorts by the select column the order attribute
names, and NULLs sort after every value in ascending order.  Rows are
compared as multisets with floats rounded; where ``ORDER BY ... LIMIT``
cuts through ties, only the ordered key values are compared.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.grammar.ast_nodes import (
    Attribute,
    Between,
    Comparison,
    InSubquery,
    Like,
    LogicalPredicate,
    QueryCore,
    SetQuery,
    SubqueryComparison,
)


def connect(database) -> sqlite3.Connection:
    """An in-memory sqlite3 copy of *database* (untyped columns)."""
    conn = sqlite3.connect(":memory:")
    for name, table in database.tables.items():
        columns = ", ".join(_quote(column) for column in table.column_names)
        conn.execute(f"CREATE TABLE {_quote(name)} ({columns})")
        marks = ", ".join("?" for _ in table.column_names)
        conn.executemany(
            f"INSERT INTO {_quote(name)} VALUES ({marks})",
            [tuple(row) for row in table.rows],
        )
    return conn


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


def _col(attr: Attribute) -> str:
    return f"{_quote(attr.table)}.{_quote(attr.column)}"


def _attr(attr: Attribute) -> str:
    if attr.agg is None:
        return _col(attr)
    if attr.column == "*":
        return "COUNT(*)"
    return f"{attr.agg.upper()}({_col(attr)})"


def _value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, float)):
        return repr(value)
    return "'" + str(value).replace("'", "''") + "'"


class Unsupported(ValueError):
    """The chart's data has no plain-SQL form (binning)."""


def chart_sql(query, database) -> Tuple[str, Optional[int]]:
    """``(sql, limit key column)`` for a chart's data.

    The key column is the select position a ``LIMIT`` cuts on, or
    ``None`` when the outermost query has no ``LIMIT``.
    """
    body = query.body
    if isinstance(body, SetQuery):
        left = _core(body.left, database)
        right = _core(body.right, database)
        return (
            f"SELECT * FROM ({left}) {body.op.upper()} SELECT * FROM ({right})",
            None,
        )
    key = None
    if body.superlative is not None:
        key = _select_index(body.superlative.attr, body.select)
    return _core(body, database), key


def _select_index(attr: Attribute, select: Sequence[Attribute]) -> int:
    for index, item in enumerate(select):
        if item == attr:
            return index
    for index, item in enumerate(select):
        if item.qualified_name == attr.qualified_name:
            return index
    raise Unsupported(f"order attribute {attr} is not selected")


def _core(core: QueryCore, database) -> str:
    if any(group.kind == "binning" for group in core.groups):
        raise Unsupported("binning has no plain-SQL form")
    parts = ["SELECT " + ", ".join(_attr(attr) for attr in core.select)]
    parts.append("FROM " + _from(core, database))
    where, having = [], []
    if core.filter is not None:
        for pred in _and_chain(core.filter.root):
            aggregated = any(a.is_aggregated for a in pred.attributes())
            (having if aggregated else where).append(_pred(pred, database))
    if where:
        parts.append("WHERE " + " AND ".join(where))
    if core.groups:
        parts.append("GROUP BY " + ", ".join(_col(g.attr) for g in core.groups))
    if having:
        parts.append("HAVING " + " AND ".join(having))
    keys = []
    if core.superlative is not None:
        sup = core.superlative
        keys.append(_order_key(sup.attr, core, "DESC" if sup.kind == "most" else "ASC"))
    if core.order is not None:
        keys.append(_order_key(core.order.attr, core, core.order.direction.upper()))
    if keys:
        parts.append("ORDER BY " + ", ".join(keys))
    if core.superlative is not None:
        parts.append(f"LIMIT {core.superlative.k}")
    return " ".join(parts)


def _order_key(attr: Attribute, core: QueryCore, direction: str) -> str:
    position = _select_index(attr, core.select) + 1
    nulls = "NULLS LAST" if direction == "ASC" else "NULLS FIRST"
    return f"{position} {direction} {nulls}"


def _from(core: QueryCore, database) -> str:
    tables = list(core.tables)
    path = list(database.join_path(tables))
    clause = _quote(tables[0])
    joined = {tables[0]}
    while path:
        for fk in path:
            if fk.table in joined and fk.ref_table not in joined:
                new = fk.ref_table
            elif fk.ref_table in joined and fk.table not in joined:
                new = fk.table
            else:
                continue
            clause += (
                f" JOIN {_quote(new)} ON {_quote(fk.table)}.{_quote(fk.column)}"
                f" = {_quote(fk.ref_table)}.{_quote(fk.ref_column)}"
            )
            joined.add(new)
            path.remove(fk)
            break
        else:
            raise Unsupported("join path does not connect")
    return clause


def _and_chain(pred) -> list:
    if isinstance(pred, LogicalPredicate) and pred.op == "and":
        return _and_chain(pred.left) + _and_chain(pred.right)
    return [pred]


def _pred(pred, database) -> str:
    if isinstance(pred, LogicalPredicate):
        joiner = " AND " if pred.op == "and" else " OR "
        return "(" + _pred(pred.left, database) + joiner + _pred(pred.right, database) + ")"
    if isinstance(pred, Comparison):
        return f"{_attr(pred.attr)} {pred.op} {_value(pred.value)}"
    if isinstance(pred, SubqueryComparison):
        return f"{_attr(pred.attr)} {pred.op} ({_core(pred.query, database)})"
    if isinstance(pred, Between):
        return f"{_attr(pred.attr)} BETWEEN {_value(pred.low)} AND {_value(pred.high)}"
    if isinstance(pred, Like):
        keyword = "NOT LIKE" if pred.negated else "LIKE"
        return f"{_attr(pred.attr)} {keyword} {_value(pred.pattern)}"
    if isinstance(pred, InSubquery):
        keyword = "NOT IN" if pred.negated else "IN"
        return f"{_attr(pred.attr)} {keyword} ({_core(pred.query, database)})"
    raise Unsupported(f"unknown predicate {type(pred).__name__}")


def _norm(value):
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return round(float(value), 6)
    return value


def _norm_row(row) -> tuple:
    return tuple(_norm(value) for value in row)


def rows_agree(
    program_rows: Sequence[Sequence], sqlite_rows: Sequence[Sequence],
    limit_key: Optional[int],
) -> bool:
    """Multiset equality with floats rounded; under a ``LIMIT``, equal
    ordered key values are enough (ties may be cut either way)."""
    ours = Counter(_norm_row(row) for row in program_rows)
    theirs = Counter(_norm_row(row) for row in sqlite_rows)
    if ours == theirs:
        return True
    if limit_key is None or len(program_rows) != len(sqlite_rows):
        return False
    ours_keys = sorted(
        (_norm(row[limit_key]) for row in program_rows), key=_sort_key
    )
    theirs_keys = sorted(
        (_norm(row[limit_key]) for row in sqlite_rows), key=_sort_key
    )
    return ours_keys == theirs_keys


def _sort_key(value) -> tuple:
    if value is None:
        return (2, 0.0, "")
    if isinstance(value, float):
        return (0, value, "")
    return (1, 0.0, str(value))


class SqliteOracle:
    """Lazily loaded sqlite3 copies of a benchmark's databases."""

    def __init__(self, databases) -> None:
        self.databases = databases
        self._conns: Dict[str, sqlite3.Connection] = {}

    def rows(self, db_name: str, sql: str) -> List[tuple]:
        conn = self._conns.get(db_name)
        if conn is None:
            conn = self._conns[db_name] = connect(self.databases[db_name])
        return conn.execute(sql).fetchall()

    def check(self, db_name: str, vis, program_rows) -> Optional[bool]:
        """``True``/``False`` for agreement; ``None`` when the chart has
        no plain-SQL form and was not compared."""
        try:
            sql, key = chart_sql(vis, self.databases[db_name])
        except Unsupported:
            return None
        return rows_agree(program_rows, self.rows(db_name, sql), key)

    def close(self) -> None:
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()
