"""Statistics helpers: spreads, the tail-percentile rule and the
golden-statistics diff.  Pure functions over plain numbers and dicts."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Mapping, Sequence, Tuple

#: the simulated statistics pinned per scenario in ``golden.json``
GOLDEN_FIELDS = ("tflops", "iteration_time", "makespan", "num_spans",
                 "bubble_fraction", "comm_fraction")

#: candidate tail percentiles, highest first
_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: a tail percentile is reported only with at least this many samples
#: strictly beyond it
MIN_BEYOND = 10


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 for fewer than
    two samples)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float],
                    wanted: float = 99.0) -> Tuple[float, float, int]:
    """The highest percentile, at most ``wanted``, that has at least
    :data:`MIN_BEYOND` samples strictly beyond it.

    Returns ``(pct, value, samples_beyond)``.  With too few samples for
    any tail percentile the median is returned, with its own count.
    """
    for pct in _PERCENTILES:
        if pct > wanted:
            continue
        value = percentile(values, pct)
        beyond = sum(1 for v in values if v > value)
        if beyond >= MIN_BEYOND:
            return pct, value, beyond
    value = percentile(values, 50.0)
    return 50.0, value, sum(1 for v in values if v > value)


def golden_stats(result: object) -> Dict[str, object]:
    """The pinned statistics of one ``RunResult``."""
    return {name: getattr(result, name) for name in GOLDEN_FIELDS}


def golden_diff(expected: Mapping[str, Mapping[str, object]],
                actual: Mapping[str, Mapping[str, object]]) -> List[str]:
    """Every way ``actual`` differs from ``expected``, one line each.

    Both map scenario keys to :func:`golden_stats` dicts.  Values must be
    exactly equal -- the simulator is deterministic, so any change is a
    behaviour change.  A key of ``actual`` missing from ``expected`` is a
    mismatch too: an unpinned scenario is not checked.
    """
    problems = []
    for key in sorted(actual):
        want = expected.get(key)
        if want is None:
            problems.append(f"{key}: no golden statistics recorded")
            continue
        got = actual[key]
        for name in GOLDEN_FIELDS:
            if got.get(name) != want.get(name):
                problems.append(
                    f"{key}: {name} = {got.get(name)!r}, golden "
                    f"{want.get(name)!r}")
    return problems
