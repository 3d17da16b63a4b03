"""Route stage: pick the target database for a question.

A served corpus holds many databases; a question names none explicitly.
The router scores every database with a schema-linking heuristic —
exact column-phrase matches (strongest signal), table-name mentions,
and bag-of-tokens overlap between the question and the schema
vocabulary — and returns a deterministic ranking.  The same scorer
doubles as a *table* ranking within the chosen database (which tables
the question is about), surfaced on the route result for downstream
consumers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Pattern, Tuple

from repro.nlp.tokenize import tokenize_nl
from repro.storage.schema import Database

_STOPWORDS = frozenset(
    "a an the of for in on by per and or to show me all each every with"
    " what which how many number count total average".split()
)


@dataclass
class RouteScore:
    """One database's routing evidence."""

    db_name: str
    score: float
    #: qualified names of columns whose phrase occurs in the question
    matched_columns: List[str] = field(default_factory=list)
    #: tables mentioned by name in the question
    matched_tables: List[str] = field(default_factory=list)
    #: fraction of (non-stopword) question tokens found in the schema
    token_overlap: float = 0.0

    def to_json(self) -> dict:
        return {
            "db": self.db_name,
            "score": round(self.score, 4),
            "matched_columns": list(self.matched_columns),
            "matched_tables": list(self.matched_tables),
            "token_overlap": round(self.token_overlap, 4),
        }


@dataclass(frozen=True)
class _SchemaIndex:
    """What routing reads of one database, built once per object.

    Holds the :class:`Database` itself, so the ``id`` the router keys
    it by is never reused while the entry lives.  Column and table
    entries carry the phrase a match needs and its compiled pattern:
    a pattern can only match where its phrase occurs, so a substring
    test skips most searches without changing any result.
    """

    database: Database
    #: ``(table, column name, lowered phrase, \bphrase\b)`` in
    #: ``iter_columns`` order, as :func:`match_columns` scans them
    columns: Tuple[Tuple[str, str, str, Pattern[str]], ...]
    #: ``(table, phrase, \bphrase)`` sorted by table name; the phrase
    #: keeps the name's case, so an upper-case name never matches the
    #: lowered question
    tables: Tuple[Tuple[str, str, Pattern[str]], ...]
    #: the ``_``-split words of every table and column name
    vocab: FrozenSet[str]

    @classmethod
    def build(cls, database: Database) -> "_SchemaIndex":
        columns = []
        vocab = set()
        for table_name, column in database.iter_columns():
            phrase = column.name.replace("_", " ").lower()
            columns.append((
                table_name, column.name, phrase,
                re.compile(rf"\b{re.escape(phrase)}\b"),
            ))
            vocab.update(table_name.lower().split("_"))
            vocab.update(column.name.lower().split("_"))
        tables = []
        for name in sorted(database.tables):
            phrase = name.replace("_", " ")
            tables.append((name, phrase, re.compile(rf"\b{re.escape(phrase)}")))
        return cls(database, tuple(columns), tuple(tables), frozenset(vocab))

    def column_matches(self, lowered: str) -> Dict[str, List[str]]:
        """Matched column names per table, in mention order: the names
        :func:`match_columns` returns."""
        found: Dict[str, List[Tuple[int, str]]] = {}
        for table, column, phrase, pattern in self.columns:
            if phrase in lowered:
                match = pattern.search(lowered)
                if match:
                    found.setdefault(table, []).append((match.start(), column))
        return {
            table: [column for _, column in sorted(entries, key=lambda e: e[0])]
            for table, entries in found.items()
        }

    def mentioned_tables(self, lowered: str) -> List[str]:
        """Tables named in the question, sorted by name."""
        return [
            name for name, phrase, pattern in self.tables
            if phrase in lowered and pattern.search(lowered)
        ]


class Router:
    """Scores databases (and tables) against a question.

    Stage contract: ``route(question, databases) -> List[RouteScore]``
    ranked best-first, deterministic for identical inputs (ties break on
    database name).  Swap in any object with that method to change the
    routing policy.

    Each database's schema is indexed on first use and kept for the
    router's life, so one router serves many requests over a fixed
    corpus; a database must not change after it has been routed over.
    """

    name = "route"

    #: scoring weights: exact column-phrase hits dominate, table-name
    #: mentions help, raw token overlap breaks near-ties
    column_weight: float = 2.0
    table_weight: float = 1.5
    overlap_weight: float = 1.0

    def __init__(self) -> None:
        self._indexes: Dict[int, _SchemaIndex] = {}

    def _index(self, database: Database) -> _SchemaIndex:
        index = self._indexes.get(id(database))
        if index is None:
            index = _SchemaIndex.build(database)
            self._indexes[id(database)] = index
        return index

    def route(
        self, question: str, databases: Dict[str, Database]
    ) -> List[RouteScore]:
        """Rank every database by schema-linking evidence."""
        lowered = question.lower()
        tokens = _content_tokens(question)
        scores = [
            self._score(lowered, tokens, self._index(database))
            for database in databases.values()
        ]
        scores.sort(key=lambda s: (-s.score, s.db_name))
        return scores

    def score(self, question: str, database: Database) -> RouteScore:
        """Score one database against the question."""
        return self._score(
            question.lower(), _content_tokens(question), self._index(database)
        )

    def _score(
        self, lowered: str, tokens: List[str], index: _SchemaIndex
    ) -> RouteScore:
        matches = index.column_matches(lowered)
        matched_columns = [
            f"{table}.{column}"
            for table, columns in sorted(matches.items())
            for column in columns
        ]
        matched_tables = index.mentioned_tables(lowered)
        overlap = (
            sum(1 for token in tokens if token in index.vocab) / len(tokens)
            if tokens else 0.0
        )
        score = (
            self.column_weight * len(matched_columns)
            + self.table_weight * len(matched_tables)
            + self.overlap_weight * overlap
        )
        return RouteScore(
            db_name=index.database.name,
            score=score,
            matched_columns=matched_columns,
            matched_tables=matched_tables,
            token_overlap=overlap,
        )

    def rank_tables(self, question: str, database: Database) -> List[str]:
        """Tables of *database* ranked by how much the question hits them."""
        lowered = question.lower()
        index = self._index(database)
        matches = index.column_matches(lowered)
        mentioned = set(index.mentioned_tables(lowered))
        ranked = []
        for name in database.tables:
            hits = float(len(matches.get(name, [])))
            if name in mentioned:
                hits += 1.5
            ranked.append((-hits, name))
        ranked.sort()
        return [name for _, name in ranked]


def _content_tokens(question: str) -> List[str]:
    """The question's alphabetic, non-stopword tokens."""
    return [
        token for token in tokenize_nl(question)
        if token.isalpha() and token not in _STOPWORDS
    ]
