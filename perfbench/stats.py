"""Percentiles and per-tick summaries used by every workload.

A percentile is reported only when at least ten samples lie beyond it, so
a p95 needs 200 samples and a p99 needs 1000.  Asking for more than the
data supports raises :class:`TooFewSamples` instead of quietly returning
the maximum.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was requested that fewer than ten samples lie beyond."""


def samples_beyond(count: int, percent: float) -> int:
    """How many of *count* sorted samples lie above the *percent* rank."""
    return count - math.ceil(count * percent / 100.0)


def min_samples(percent: float) -> int:
    """Smallest sample count for which *percent* is reportable."""
    count = MIN_BEYOND
    while samples_beyond(count, percent) < MIN_BEYOND:
        count += 1
    return count


def percentile(values: Sequence[float], percent: float) -> float:
    """Linear-interpolation percentile of *values* (any order).

    Raises:
        TooFewSamples: when fewer than :data:`MIN_BEYOND` samples lie
            beyond the requested rank.
    """
    beyond = samples_beyond(len(values), percent)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{percent:g} of {len(values)} samples has {max(beyond, 0)} beyond it; "
            f"at least {MIN_BEYOND} are needed ({min_samples(percent)} samples)"
        )
    ordered = sorted(values)
    position = (len(ordered) - 1) * percent / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def median(values: Sequence[float]) -> float:
    """Median of *values*; 0.0 for an empty sequence (an absent layer)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty iterable (an absent layer)."""
    items: List[float] = list(values)
    return sum(items) / len(items) if items else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """*numerator* / *denominator*, or 0.0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0


def lateness(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """Seconds each send ran behind its schedule (never negative)."""
    return [max(0.0, actual - planned) for planned, actual in zip(due, sent)]


def latencies_from_due(due: Sequence[float], done: Sequence[float]) -> List[float]:
    """Open-loop latencies: completion minus the time the request was due.

    Timing from the due time rather than from the actual send charges a
    request for the wait a stall imposed on it before it could be sent.
    """
    return [finished - planned for planned, finished in zip(due, done)]
