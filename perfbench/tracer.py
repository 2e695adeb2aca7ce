"""In-memory span tracer for the traced benchmark run.

The tracer wraps public entry points of the ``repro`` layers from the
outside (class or module attributes), records one span per call --
name, start, end and the span that was open when it began -- and
restores every wrapped attribute on :meth:`Tracer.uninstall`. No file
of the program changes. Spans live in flat arrays so that the ~400k
routing calls of a cold geo planning run stay cheap to hold.

A layer's self time is its spans' total duration minus the part covered
by their child spans. Counters read after a call (events executed,
signatures, trace census, ...) are kept beside the spans.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Counters read at layer boundaries, summed over the traced work.
        self.counters: Counter = Counter()

    # ------------------------------------------------------------ spans

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = len(self.names)
            self._name_ids[name] = ident
            self.names.append(name)
        return ident

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        ident = self._name_id(name)
        stack = self._stack
        index = len(self.starts)
        self.name_of.append(ident)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = perf_counter()
            stack.pop()

    def wrap(self, owner: Any, attr: str, name: str,
             after: Optional[Callable[[tuple, Any], None]] = None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper.

        ``after(args, result)`` runs once the call returns, outside the
        span, to read counters off the arguments or the result.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        span = self.span

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = span(name, original, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- reports

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive seconds, self seconds."""
        n = len(self.starts)
        covered = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        table: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        for i in range(n):
            row = table[self.names[self.name_of[i]]]
            duration = ends[i] - starts[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered[i]
        return table

    def durations(self, name: str) -> List[float]:
        """Inclusive durations of every span called ``name``."""
        ident = self._name_ids.get(name)
        if ident is None:
            return []
        return [self.ends[i] - self.starts[i]
                for i in range(len(self.starts)) if self.name_of[i] == ident]
