"""In-memory spans recorded around calls into the program (traced runs only).

``Recorder.wrap`` replaces a function or method with a wrapper that
records one span per call, under whatever span is open, and patches the
name where its caller looks it up.  Spans stay in memory and are written
out as JSON lines when the run ends.  The timed runs never import this
module.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Recorder:
    """Spans as ``[name, phase, start, end, parent index]`` lists."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: objects a wrapper keeps for the report (e.g. a cache instance)
        self.objects: Dict[str, object] = {}
        self.phase = ""
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ----- recording ---------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.phase, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][3] = time.perf_counter()

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Patch ``owner.attr`` to record a span named *name* per call.

        *on_result* is called as ``on_result(args, result)`` after each
        call, for counters that need the arguments or the return value.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ----- reading -----------------------------------------------------

    def _durations(self) -> List[float]:
        return [(span[3] or span[2]) - span[2] for span in self.spans]

    def self_seconds(self, phase: Optional[str] = None) -> Dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        durations = self._durations()
        child_time = [0.0] * len(self.spans)
        for index, span in enumerate(self.spans):
            if span[4] is not None:
                child_time[span[4]] += durations[index]
        totals: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if phase is None or span[1] == phase:
                totals[span[0]] += durations[index] - child_time[index]
        return totals

    def total_seconds(self, phase: Optional[str] = None) -> Dict[str, float]:
        """Per span name: summed durations (children included)."""
        durations = self._durations()
        totals: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if phase is None or span[1] == phase:
                totals[span[0]] += durations[index]
        return totals

    def calls(self, name: str, phase: Optional[str] = None) -> int:
        return sum(
            1 for span in self.spans
            if span[0] == name and (phase is None or span[1] == phase)
        )

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, (name, phase, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "parent": parent, "name": name,
                    "phase": phase, "start": start, "end": end,
                }) + "\n")
