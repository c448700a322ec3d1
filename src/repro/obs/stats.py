"""Small-sample nonparametric statistics for the trend layer (stdlib only).

The run-history series this repo accumulates are short (a handful to a
few dozen runs) and wall-clock-timing shaped: skewed, outlier-prone,
and far from normal.  The combinatorial-scheduling evaluation literature
(Castañeda Lozano & Schulte's survey) settles on exactly the toolkit
implemented here — rank tests and effect sizes, not t-tests:

* :func:`mann_whitney_u` — the two-sample rank test.  *Exact* (full
  enumeration of rank assignments) for the tiny splits a 5-run history
  produces, normal approximation with tie correction beyond that;
* :func:`cliffs_delta` — the ordinal effect size in [-1, 1] (±1 means
  the two samples do not overlap at all), which is what actually
  separates "2× slower" from "p < .05 on a meaningless difference";
* :func:`bootstrap_ci` — a seeded percentile bootstrap for medians, so
  confidence intervals are reproducible run to run;
* :func:`kendall_tau` — monotonic association of a series with time,
  the drift detector.

Everything takes plain sequences of floats and is deterministic: no
wall clock, no ambient RNG (the bootstrap seeds its own ``Random``).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

#: Below this pooled size the Mann-Whitney test enumerates every rank
#: assignment (exact); above it the tie-corrected normal approximation
#: takes over.  C(14, 7) = 3432 assignments is the worst case.
EXACT_LIMIT = 14


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of an empty sample")
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of an empty sample")
    return sum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))


def _u_statistic(a: Sequence[float], b: Sequence[float]) -> float:
    """U of sample ``a``: concordant pairs, ties counted half."""
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


@dataclass
class MWUResult:
    """One two-sided Mann-Whitney U test."""

    u: float                 # U statistic of the first sample
    p_value: Optional[float]  # two-sided; None when a sample is empty
    n1: int
    n2: int
    exact: bool

    def to_dict(self):
        return {
            "u": self.u, "p_value": self.p_value,
            "n1": self.n1, "n2": self.n2, "exact": self.exact,
        }


def _normal_sf(z: float) -> float:
    """P(Z >= z) for a standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> MWUResult:
    """Two-sided Mann-Whitney U; exact below :data:`EXACT_LIMIT`."""
    n1, n2 = len(a), len(b)
    if not n1 or not n2:
        return MWUResult(u=0.0, p_value=None, n1=n1, n2=n2, exact=False)
    u_obs = _u_statistic(a, b)

    if n1 + n2 <= EXACT_LIMIT:
        pooled = list(a) + list(b)
        total = 0
        at_least = 0
        at_most = 0
        for picks in itertools.combinations(range(n1 + n2), n1):
            chosen = set(picks)
            ua = _u_statistic(
                [pooled[i] for i in picks],
                [pooled[i] for i in range(n1 + n2) if i not in chosen],
            )
            total += 1
            if ua >= u_obs - 1e-12:
                at_least += 1
            if ua <= u_obs + 1e-12:
                at_most += 1
        p = min(1.0, 2.0 * min(at_least, at_most) / total)
        return MWUResult(u=u_obs, p_value=p, n1=n1, n2=n2, exact=True)

    # Normal approximation with tie correction and continuity correction.
    n = n1 + n2
    pooled = list(a) + list(b)
    tie_counts: dict = {}
    for v in pooled:
        tie_counts[v] = tie_counts.get(v, 0) + 1
    tie_term = sum(t ** 3 - t for t in tie_counts.values())
    mu = n1 * n2 / 2.0
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return MWUResult(u=u_obs, p_value=1.0, n1=n1, n2=n2, exact=False)
    z = (abs(u_obs - mu) - 0.5) / math.sqrt(var)
    p = min(1.0, 2.0 * _normal_sf(max(z, 0.0)))
    return MWUResult(u=u_obs, p_value=p, n1=n1, n2=n2, exact=False)


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> Optional[float]:
    """Cliff's delta of ``b`` relative to ``a``: +1 = b entirely above a."""
    if not a or not b:
        return None
    more = less = 0
    for y in b:
        for x in a:
            if y > x:
                more += 1
            elif y < x:
                less += 1
    return (more - less) / (len(a) * len(b))


def bootstrap_ci(
    values: Sequence[float],
    stat: Callable[[Sequence[float]], float] = median,
    resamples: int = 400,
    alpha: float = 0.05,
    seed: int = 0,
) -> Optional[Tuple[float, float]]:
    """Seeded percentile-bootstrap CI of ``stat``; None for empty input."""
    if not values:
        return None
    if len(values) == 1:
        return (float(values[0]), float(values[0]))
    rng = random.Random(seed)
    stats = sorted(
        stat([rng.choice(values) for _ in values]) for _ in range(resamples)
    )
    lo = stats[max(0, min(resamples - 1, int(math.floor(alpha / 2 * resamples))))]
    hi = stats[max(0, min(resamples - 1, int(math.ceil((1 - alpha / 2) * resamples)) - 1))]
    return (lo, hi)


def kendall_tau(values: Sequence[float]) -> Optional[float]:
    """Kendall's tau of a series against its own index (monotonic trend)."""
    n = len(values)
    if n < 2:
        return None
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            if values[j] > values[i]:
                concordant += 1
            elif values[j] < values[i]:
                discordant += 1
    pairs = n * (n - 1) / 2
    return (concordant - discordant) / pairs
