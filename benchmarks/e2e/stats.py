"""Summary statistics shared by the runners and ``compare``."""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: A printed tail percentile must leave at least this many samples beyond it.
TAIL_SAMPLES = 10


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``p``% at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_level(n: int) -> int:
    """The highest whole percentile that leaves ``TAIL_SAMPLES`` samples beyond
    its nearest rank; 100 (the maximum) when ``n`` is too small for any."""
    if n <= TAIL_SAMPLES:
        return 100
    return (100 * (n - TAIL_SAMPLES)) // n


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def latency_summary(samples_ms: Sequence[float]) -> Dict[str, float]:
    """Median and tail of a latency sample, with the tail's level and support."""
    n = len(samples_ms)
    level = tail_level(n)
    return {
        "p50": percentile(samples_ms, 50),
        "tail": percentile(samples_ms, level),
        "level": level,
        "n": n,
        "beyond": beyond(n, level),
    }


def as_metrics(values: Dict[str, Tuple[float, Optional[float], int]]) -> Dict[str, Dict[str, Any]]:
    """``{name: (value, raw wall value or None, samples)}`` -> record form."""
    out: Dict[str, Dict[str, Any]] = {}
    for name, (value, raw, n) in values.items():
        out[name] = {"value": value, "n": n}
        if raw is not None:
            out[name]["raw"] = raw
    return out


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)`` gives them
    (a single value is its own quartiles)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for a zero median)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0
