"""Order statistics for the benchmark's latency and spread reports."""
from __future__ import annotations

import statistics

MIN_BEYOND = 10


def tail_percentile(values: list[float]) -> dict | None:
    """The highest percentile with at least MIN_BEYOND samples above it:
    the value of nearest rank n - MIN_BEYOND, with that percentile and the
    sample count.  None when that percentile would not exceed the median's."""
    n = len(values)
    rank = n - MIN_BEYOND
    if 2 * rank < n:
        return None
    return {"percentile": 100.0 * rank / n, "value": sorted(values)[rank - 1], "samples": n}


def relative_spread(values: list[float]) -> float:
    """Inter-quartile distance over the median, as statistics.quantiles gives it."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
