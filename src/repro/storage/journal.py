"""Cross-run persistent backing store for :class:`ExecutionCache`.

The journal is an **append-only JSONL file**: one line per cached
execution, carrying the cache key (database name + canonical query-body
tokens) and either the result table or the cached error.  Each line ends
with a short checksum over its own payload, so the loader is
corruption-tolerant by construction:

* a line that does not parse as JSON (e.g. a partial write from a killed
  build) is dropped;
* a line whose checksum does not match (bit rot, manual edits) is
  dropped;
* everything before and after a bad line still loads — corrupt entries
  are **skipped and counted**, never silently merged into the cache.

Dropping an entry is always safe: the cache is a pure memoization layer
and a dropped entry simply re-executes (``tests/test_build_parallel.py``
asserts cached and uncached builds are identical).

:class:`PersistentExecutionCache` wires the journal under the normal
:class:`ExecutionCache` interface so filter training and synthesis share
one store *across builds*: entries appended by one run are preloaded by
the next, and the streamed build flushes new entries after every
committed shard.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.storage.executor import ExecutionCache, ResultTable


def _checksum(body: str) -> str:
    """Short content checksum guarding one journal line."""
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:12]


def encode_entry(key: tuple, kind: str, payload: object) -> str:
    """One journal line (with trailing newline) for a cache entry."""
    record = {"db": key[0], "tokens": list(key[1]), "kind": kind}
    if kind == ExecutionCache._OK:
        record["columns"] = list(payload.columns)
        record["rows"] = [list(row) for row in payload.rows]
    else:
        record["error"] = str(payload)
    body = json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)
    return json.dumps({"body": record, "h": _checksum(body)},
                      sort_keys=True, separators=(",", ":"), default=str) + "\n"


def decode_entry(line: str) -> Optional[Tuple[tuple, Tuple[str, object]]]:
    """Parse one journal line; ``None`` for corrupt/garbled lines."""
    try:
        wrapper = json.loads(line)
        record = wrapper["body"]
        body = json.dumps(record, sort_keys=True, separators=(",", ":"),
                          default=str)
        if wrapper["h"] != _checksum(body):
            return None
        key = (record["db"], tuple(record["tokens"]))
        if record["kind"] == ExecutionCache._OK:
            result = ResultTable(
                columns=list(record["columns"]),
                rows=[tuple(row) for row in record["rows"]],
            )
            return key, (ExecutionCache._OK, result)
        return key, (ExecutionCache._ERR, record["error"])
    except (json.JSONDecodeError, KeyError, TypeError, IndexError):
        return None


def load_journal(path: Path) -> Tuple[Dict[tuple, Tuple[str, object]], int]:
    """Load a journal file → ``(entries, corrupt_line_count)``.

    A missing file is an empty journal.  Later lines win on duplicate
    keys (append-only semantics: re-recorded entries supersede).
    """
    entries: Dict[tuple, Tuple[str, object]] = {}
    corrupt = 0
    try:
        lines = Path(path).read_text().splitlines()
    except OSError:
        return entries, 0
    for line in lines:
        if not line.strip():
            continue
        decoded = decode_entry(line)
        if decoded is None:
            corrupt += 1
            continue
        key, entry = decoded
        entries[key] = entry
    return entries, corrupt


class PersistentExecutionCache(ExecutionCache):
    """An :class:`ExecutionCache` backed by an append-only journal.

    On construction, every valid journal line is preloaded (corrupt
    lines are counted in :attr:`corrupt_entries` and skipped).  New
    entries recorded during the run accumulate in memory until
    :meth:`flush` appends them to the journal — the streamed build
    flushes after every committed shard, so a killed build loses at most
    one shard's worth of cache work.
    """

    def __init__(self, path: str):
        super().__init__()
        self.path = Path(path)
        preloaded, self.corrupt_entries = load_journal(self.path)
        self._entries.update(preloaded)
        self.preloaded = len(preloaded)
        self._pending: List[tuple] = []

    # -- recording ------------------------------------------------------

    def store_result(self, key: tuple, result: ResultTable) -> None:
        super().store_result(key, result)
        with self._lock:
            self._pending.append(key)

    def store_error(self, key: tuple, message: str) -> None:
        super().store_error(key, message)
        with self._lock:
            self._pending.append(key)

    def absorb_entries(self, entries: Iterable[Tuple[tuple, Tuple[str, object]]]) -> int:
        """Adopt entries produced elsewhere (a worker process); returns
        how many were new.  Adopted entries are flushed like local ones."""
        added = 0
        with self._lock:
            for key, entry in entries:
                if key not in self._entries:
                    self._entries[key] = entry
                    self._pending.append(key)
                    added += 1
        return added

    # -- persistence ----------------------------------------------------

    def flush(self) -> int:
        """Append pending entries to the journal; returns the count.

        Appends are line-atomic in practice and, even when they are not,
        a torn final line is exactly what the corruption-tolerant loader
        drops on the next run.
        """
        with self._lock:
            pending, self._pending = self._pending, []
            lines = [
                encode_entry(key, *self._entries[key])
                for key in pending
                if key in self._entries
            ]
        if not lines:
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.writelines(lines)
            handle.flush()
            os.fsync(handle.fileno())
        return len(lines)

    def __getstate__(self) -> dict:
        # Crossing a process boundary would fork the journal; workers get
        # plain ExecutionCache seedings instead (see _parallel driver).
        raise TypeError("PersistentExecutionCache does not pickle; "
                        "seed workers with entries_for_db() instead")
