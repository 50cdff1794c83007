"""In-memory span tracer and the shims that feed it.

A traced run patches a handful of public callables — class methods and
module-level names that callers look up at call time — with thin wrappers
that record a span (name, start, end, parent, tick) around each call.
Nothing is patched in an untraced run.  Patches go on classes and modules,
never on instances, so traced servers still pickle for checkpoints.

Spans are kept in a list and written out once, when the run ends.  A
span's self time is its duration minus the part of it its child spans
cover (:func:`self_times`).
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Index of each field in a recorded span.
NAME, START, END, PARENT, TICK = range(5)


class Tracer:
    """Records nested spans and per-tick counts in memory.

    Args:
        tick_source: called for the tick id of a root span; nested spans
            inherit their parent's tick.  Without it the id is
            :attr:`tick`, which the caller sets.
    """

    def __init__(self, tick_source: Optional[Callable[[], int]] = None) -> None:
        self.spans: List[list] = []
        self.counts: List[Tuple[str, float, int]] = []
        self.tick = 0
        self._tick_source = tick_source
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    # -- recording ------------------------------------------------------
    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        stack = self._stack
        if stack:
            parent = stack[-1]
            tick = self.spans[parent][TICK]
        else:
            parent = -1
            tick = self._tick_source() if self._tick_source else self.tick
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, tick])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span opened as *index*."""
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Record a count against the current span's tick."""
        stack = self._stack
        tick = self.spans[stack[-1]][TICK] if stack else self.tick
        self.counts.append((name, value, tick))

    # -- shims ----------------------------------------------------------
    @property
    def installed(self) -> bool:
        """True while any :meth:`patch` is in place."""
        return bool(self._restore)

    def patch(
        self,
        owner,
        attr: str,
        name: str,
        observe: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> None:
        """Wrap ``owner.attr`` (a class or module) in a span named *name*.

        *observe*, when given, is called as ``observe(tracer, args,
        result)`` after each call, inside the span's tick, to record
        counts.
        """
        own = owner.__dict__
        had_own = attr in own
        raw = own.get(attr)
        target = getattr(owner, attr)
        tracer = self

        def shim(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = target(*args, **kwargs)
            finally:
                tracer.end(index)
            if observe is not None:
                tracer._stack.append(index)
                try:
                    observe(tracer, args, result)
                finally:
                    tracer._stack.pop()
            return result

        shim.__wrapped__ = target
        setattr(owner, attr, shim)
        self._restore.append((owner, attr, had_own, raw))

    def uninstall(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._restore:
            owner, attr, had_own, raw = self._restore.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- output ---------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span and count to *path* as JSON lines."""
        with open(path, "w", encoding="utf-8") as stream:
            for name, start, end, parent, tick in self.spans:
                stream.write(json.dumps(
                    {"span": name, "start": start, "end": end,
                     "parent": parent, "tick": tick}) + "\n")
            for name, value, tick in self.counts:
                stream.write(json.dumps(
                    {"count": name, "value": value, "tick": tick}) + "\n")


def covered_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of *intervals*."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        clipped = [
            (max(child_start, start), min(child_end, end))
            for child_start, child_end in children.get(index, ())
            if child_end > start and child_start < end
        ]
        result.append((end - start) - covered_length(clipped))
    return result


def per_tick(spans, names, use_self: bool = False, selfs=None) -> Dict[int, float]:
    """Seconds per tick spent in spans named in *names* (total or self)."""
    if use_self and selfs is None:
        selfs = self_times(spans)
    totals: Dict[int, float] = defaultdict(float)
    for index, span in enumerate(spans):
        if span[NAME] in names:
            duration = selfs[index] if use_self else span[END] - span[START]
            totals[span[TICK]] += duration
    return totals


def counts_per_tick(counts, name: str) -> Dict[int, float]:
    """Sum of the counts named *name*, per tick."""
    totals: Dict[int, float] = defaultdict(float)
    for count_name, value, tick in counts:
        if count_name == name:
            totals[tick] += value
    return totals
