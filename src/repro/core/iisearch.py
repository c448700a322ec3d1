"""Two-phase II search (Section 2.3).

The search space of candidate IIs is explored with a binary rather than
linear search — no measurable impact on code quality but a dramatic impact
on compile speed.  Two phases:

1. *Exponential backoff*: try MinII, MinII+1, MinII+2, MinII+4, MinII+8...
   until a schedule is found or MaxII (= 2 * MinII, the compile-speed
   circuit breaker) is exceeded.  A success at II <= MinII+2 leaves no
   better II untried and is accepted outright.
2. *Binary search* between the largest backoff failure and the backoff
   success, under the (heuristic, empirically safe) assumption that
   schedulability is monotone in II.

After spilling, a simple binary search over [MinII, MaxII] is used instead
(Section 2.8).

Every candidate II tried is recorded — phase, outcome, search effort and
why a failed attempt stopped — in :attr:`IISearchResult.attempted`,
*including* on overall failure, so the compile-speed analyses can see
exactly which IIs each phase visited and :mod:`repro.obs.explain` can
attribute an II gap without searching again.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription
from ..obs import get_recorder
from .bnb import BnBConfig, BnBResult, modulo_schedule_bnb, prepare_attempt
from .distances import SccDistanceTables
from .membank import BankPairer
from .sched import SchedulingStats

PairerFactory = Callable[[int], Optional[BankPairer]]


@dataclass
class IIAttempt:
    """One candidate II tried during the search, with its outcome."""

    ii: int
    phase: str  # "linear" | "backoff" | "binary" | "simple" | "rau"
    success: bool
    placements: int = 0
    backtracks: int = 0
    seconds: float = 0.0
    # Why a failed attempt stopped: "budget" (the B&B backtrack/placement
    # limit, or Rau94's placement budget), "exhausted" (the search ran out
    # of choices within budget) or "pruned" (a certified static lower bound
    # from repro.analyze rejected the II without scheduling).  "" on success.
    stop: str = ""
    # For a found II, stamped by the driver: did the schedule
    # register-allocate, and how many live ranges failed to colour?
    allocated: Optional[bool] = None
    uncolored: int = 0


@dataclass
class IISearchResult:
    ii: Optional[int]
    times: Optional[Dict[int, int]]
    attempts: int = 0
    # Every II tried, in the order tried, whatever the overall outcome.
    attempted: List[IIAttempt] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.times is not None


def _attempt(
    loop: Loop,
    machine: MachineDescription,
    ii: int,
    priority: Sequence[int],
    config: BnBConfig,
    pairer_factory: Optional[PairerFactory],
    stats: Optional[SchedulingStats],
) -> BnBResult:
    pairer = pairer_factory(ii) if pairer_factory is not None else None
    # Loop/machine analysis (distance-derived plan, table lowering) is
    # hoisted out of the timed window; only the search itself is timed.
    prepare_attempt(loop, machine, ii, priority)
    start = _time.perf_counter()
    result = modulo_schedule_bnb(loop, machine, ii, priority, config, pairer)
    result.seconds = _time.perf_counter() - start
    if stats is not None:
        stats.attempts += 1
        stats.placements += result.placements
        stats.backtracks += result.backtracks
        stats.seconds += result.seconds
    return result


def search_ii(
    loop: Loop,
    machine: MachineDescription,
    priority: Sequence[int],
    min_ii: int,
    max_ii: int,
    config: Optional[BnBConfig] = None,
    pairer_factory: Optional[PairerFactory] = None,
    simple_binary: bool = False,
    linear: bool = False,
    stats: Optional[SchedulingStats] = None,
    static_bound: Optional[int] = None,
) -> IISearchResult:
    """Find the smallest schedulable II in [min_ii, max_ii] for one priority.

    ``linear=True`` selects the naive linear sweep (for the ablation bench
    of the binary-search design choice); ``simple_binary=True`` selects the
    plain binary search used after spills are introduced.

    ``static_bound`` is a certified II lower bound (:mod:`repro.analyze`):
    candidate IIs below it are marked failed *without* invoking the B&B
    scheduler.  The pruning is outcome-identical — the search visits the
    same II sequence and returns the same result, it just skips provably
    futile scheduling attempts (counted under ``ii.static_prunes``).  A
    bound above ``max_ii`` certifies the loop unschedulable under the
    circuit breaker and short-circuits the whole search.
    """
    config = config or BnBConfig()
    attempted: List[IIAttempt] = []
    rec = get_recorder()
    # Build the II-independent longest-path structure once, up front: every
    # candidate II below evaluates the cached Pareto profiles instead of
    # re-running Floyd–Warshall (repeat searches over the same loop — other
    # priority orders, post-spill re-searches — reuse it too).
    SccDistanceTables.prime(loop)

    def try_ii(ii: int, phase: str) -> Optional[Dict[int, int]]:
        if static_bound is not None and ii < static_bound:
            attempted.append(IIAttempt(ii=ii, phase=phase, success=False, stop="pruned"))
            if rec.enabled:
                rec.counter("ii.static_prunes")
                rec.event(
                    "ii.attempt",
                    loop=loop.name,
                    ii=ii,
                    phase=phase,
                    success=False,
                    pruned=True,
                    static_bound=static_bound,
                )
            return None
        result = _attempt(loop, machine, ii, priority, config, pairer_factory, stats)
        stop = ""
        if not result.success:
            over = (
                result.backtracks >= config.max_backtracks
                or result.placements > config.max_placements
            )
            stop = "budget" if over else "exhausted"
        attempted.append(
            IIAttempt(
                ii=ii,
                phase=phase,
                success=result.success,
                placements=result.placements,
                backtracks=result.backtracks,
                seconds=result.seconds,
                stop=stop,
            )
        )
        if rec.enabled:
            rec.counter("ii.attempts")
            rec.event(
                "ii.attempt",
                loop=loop.name,
                ii=ii,
                phase=phase,
                success=result.success,
                placements=result.placements,
                backtracks=result.backtracks,
            )
        return result.times

    def done(ii: Optional[int], times: Optional[Dict[int, int]]) -> IISearchResult:
        return IISearchResult(ii, times, len(attempted), attempted)

    mode = "linear" if linear else ("simple" if simple_binary else "two-phase")
    with rec.span("ii.search", loop=loop.name, min_ii=min_ii, max_ii=max_ii, mode=mode):
        if min_ii > max_ii or (static_bound is not None and static_bound > max_ii):
            # Nothing in [min_ii, max_ii] can work — either the window is
            # empty or a certificate proves every II in it infeasible:
            # a clean "unschedulable under the circuit breaker" result.
            if rec.enabled and static_bound is not None and static_bound > max_ii:
                rec.counter("ii.static_unschedulable")
                rec.event(
                    "ii.static_unschedulable",
                    loop=loop.name,
                    static_bound=static_bound,
                    max_ii=max_ii,
                )
            return done(None, None)
        if linear:
            for ii in range(min_ii, max_ii + 1):
                times = try_ii(ii, "linear")
                if times is not None:
                    return done(ii, times)
            return done(None, None)

        if simple_binary:
            return _simple_binary(min_ii, max_ii, try_ii, done)

        # Phase 1: exponential backoff from MinII.
        tried_and_failed: List[int] = []
        found_ii: Optional[int] = None
        found_times: Optional[Dict[int, int]] = None
        delta = 0
        while True:
            ii = min_ii + delta
            if ii > max_ii:
                break
            times = try_ii(ii, "backoff")
            if times is not None:
                found_ii, found_times = ii, times
                break
            tried_and_failed.append(ii)
            delta = 1 if delta == 0 else delta * 2
        if found_times is None:
            return done(None, None)
        if found_ii <= min_ii + 2:
            return done(found_ii, found_times)

        # Phase 2: binary search between the largest failure and the success.
        lo = max(tried_and_failed) if tried_and_failed else min_ii - 1
        hi = found_ii
        while hi - lo > 1:
            mid = (lo + hi) // 2
            times = try_ii(mid, "binary")
            if times is not None:
                hi, found_times = mid, times
            else:
                lo = mid
        return done(hi, found_times)


def _simple_binary(min_ii: int, max_ii: int, try_ii, done) -> IISearchResult:
    times = try_ii(max_ii, "simple")
    if times is None:
        return done(None, None)
    lo, hi = min_ii, max_ii
    best = times
    while lo < hi:
        mid = (lo + hi) // 2
        times = try_ii(mid, "simple")
        if times is not None:
            hi, best = mid, times
        else:
            lo = mid + 1
    return done(hi, best)
