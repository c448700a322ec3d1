"""Seeded fault injection: calibration targets for the fuzz oracle.

A differential oracle that never fires is indistinguishable from one that
cannot fire.  Each injection here plants one class of compiler bug into
the scheduling pipeline — applied inside the worker via the ``_test_inject``
option key, so it crosses process boundaries and lands in the cache key
automatically — and each is caught by a *different* oracle layer:

``latency``
    The scheduler sees every FLOW latency clamped to 1, so loops with a
    long-latency recurrence schedule below their true RecMII.  The
    schedule is internally consistent with the corrupted arcs (the
    independent verifier checks arc latencies as recorded in the loop, and
    writeback-at-issue semantics make the functional sim insensitive to
    latencies), so only the **II >= MinII layer** — which measures against
    the pristine loop — catches it.

``sched-shift``
    After scheduling, one dependent operation is moved onto its producer's
    issue cycle, violating a positive-latency same-iteration arc.  Caught
    by the **independent-verify layer** (SCHED001).

``reg-clobber``
    After allocation, two distinct FP registers are merged, so two live
    ranges overlap in one physical register.  Caught by the
    **independent-verify layer** (REG rules) and, independently, by the
    **functional-sim layer** (the clobbered value poisons results).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from ..ir.ddg import DDG, DepKind
from ..ir.loop import Loop

#: Injection name -> what it corrupts (and which oracle layer must notice).
INJECTIONS: Dict[str, str] = {
    "latency": "clamp every FLOW arc latency the scheduler sees to 1 "
               "(caught by the II >= MinII layer)",
    "sched-shift": "move one dependent op onto its producer's issue cycle "
                   "(caught by independent verify, SCHED001)",
    "reg-clobber": "merge two allocated FP registers into one "
                   "(caught by independent verify / functional sim)",
}


def corrupt_loop(loop: Loop, name: str) -> Loop:
    """Pre-scheduling corruption: what the scheduler (not the oracle) sees."""
    if name != "latency":
        return loop
    arcs = tuple(
        replace(arc, latency=1)
        if arc.kind is DepKind.FLOW and arc.latency > 1
        else arc
        for arc in loop.ddg.arcs
    )
    return Loop(
        name=loop.name,
        ops=loop.ops,
        ddg=DDG(loop.n_ops, arcs),
        live_in=loop.live_in,
        live_out=loop.live_out,
        trip_count=loop.trip_count,
        weight=loop.weight,
        known_parity=loop.known_parity,
    )


def corrupt_result(result, name: str) -> None:
    """Post-scheduling corruption of a successful result, in place."""
    if not result.success or result.schedule is None:
        return
    if name == "sched-shift":
        schedule = result.schedule
        for arc in result.loop.ddg.arcs:
            if (
                arc.kind is DepKind.FLOW
                and arc.omega == 0
                and arc.latency > 0
                and arc.src != arc.dst
            ):
                schedule.times[arc.dst] = schedule.times[arc.src]
                return
    elif name == "reg-clobber":
        allocation = result.allocation
        if allocation is None or not allocation.success:
            return
        assignment = allocation.fp_assignment
        colors = sorted(set(assignment.values()))
        if len(colors) < 2:
            return  # a single FP register cannot be merged with another
        # Merge every FP register into the lowest-numbered one: any two
        # simultaneously-live FP values now collide.
        for vname in assignment:
            assignment[vname] = colors[0]
