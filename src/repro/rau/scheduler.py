"""Iterative modulo scheduling [Rau94] — the classic alternative heuristic.

The paper's epigraph and framework citation: B. R. Rau, *Iterative modulo
scheduling: an algorithm for software pipelining loops*, MICRO-27 (1994).
Implemented here as a third scheduler so the showdown can be extended with
the best-known non-backtracking heuristic:

* operations are picked by HeightR priority (longest II-adjusted path to
  any leaf of the dependence graph);
* each pick is placed at the first conflict-free cycle in the II-wide
  window starting at its earliest start (from scheduled *predecessors*
  only); if no slot is free, it is *force-placed* and the conflicting
  operations — resource conflicts and violated successors — are evicted
  and rescheduled later;
* the total number of placements is budgeted (``BUDGET_RATIO * n_ops``);
  exceeding the budget fails the candidate II.

Unlike the SGI branch-and-bound, there is no backtracking state: eviction
plus the monotone forced placement (never the same cycle twice in a row)
drives the search.  Register allocation is the other pipeliners'; spilling
is SGI's policy, :func:`repro.core.spill.spill_loop`, around a linear II walk.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from ..core.driver import PipelineResult, heuristic_result, options_from_mapping
from ..core.iisearch import IIAttempt
from ..core.minii import max_ii, min_ii as compute_min_ii
from ..core.sched import Schedule, SchedulingStats
from ..core.spill import RoundOutcome, spill_loop
from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription, r8000
from ..machine.resources import ModuloReservationTable
from ..obs import get_recorder
from ..regalloc.coloring import allocate_schedule


#: Placements one candidate-II attempt may make per operation.
BUDGET_RATIO = 5.0


@dataclass
class RauOptions:
    """Configuration of the iterative modulo scheduler: it has none (the
    registry's options class, so every option key is rejected)."""

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RauOptions":
        """Build options from a JSON-style mapping (the repro.exec cell form)."""
        return options_from_mapping(cls, data)


def height_r(loop: Loop, ii: int) -> Dict[int, int]:
    """HeightR priority: longest path of ``latency - II*omega`` to any sink.

    Converges in at most ``n`` relaxation passes when II is feasible (no
    positive-weight cycles).
    """
    n = loop.n_ops
    heights = [0] * n
    arcs = [
        (a.src, a.dst, a.latency - ii * a.omega)
        for a in loop.ddg.arcs
        if a.src != a.dst
    ]
    for _ in range(n):
        changed = False
        for src, dst, w in arcs:
            if heights[dst] + w > heights[src]:
                heights[src] = heights[dst] + w
                changed = True
        if not changed:
            break
    return {op: heights[op] for op in range(n)}


def placement_budget(loop: Loop) -> int:
    """Placements one candidate-II attempt may make before it fails."""
    return max(1, int(BUDGET_RATIO * loop.n_ops))


def iterative_modulo_schedule(
    loop: Loop,
    machine: MachineDescription,
    ii: int,
    stats: Optional[SchedulingStats] = None,
) -> Optional[Dict[int, int]]:
    """One candidate-II attempt; returns issue times or None."""
    heights = height_r(loop, ii)
    n = loop.n_ops
    budget = placement_budget(loop)

    mrt = ModuloReservationTable(ii, machine.availability)
    times: Dict[int, int] = {}
    last_cycle: Dict[int, int] = {}
    placements = 0
    evictions = 0

    # Hot-path precomputation (outcome-identical): the dynamic pick —
    # max by (height, -op) over unplaced ops — always selects the first
    # unplaced element of this static order; reservation tables are
    # pre-lowered once; dependence arcs become flat (neighbour, weight)
    # tuples so the main loop touches no DDG objects.
    order = sorted(range(n), key=lambda op: (-heights[op], op))
    tables = [machine.table(op.opclass) for op in loop.ops]
    lowered = [mrt.lower(t) for t in tables]
    pred_arcs = [
        tuple(
            (a.src, a.latency - ii * a.omega)
            for a in loop.ddg.preds(op)
            if a.src != op
        )
        for op in range(n)
    ]
    succ_arcs = [
        tuple(
            (a.dst, a.latency - ii * a.omega)
            for a in loop.ddg.succs(op)
            if a.dst != op
        )
        for op in range(n)
    ]
    wrap = (1 << ii) - 1

    def priority_pick() -> Optional[int]:
        for op in order:
            if op not in times:
                return op
        return None

    def earliest_start(op: int) -> int:
        start = 0
        for src, w in pred_arcs[op]:
            t = times.get(src)
            if t is not None and t + w > start:
                start = t + w
        return start

    def unplace(op: int) -> None:
        nonlocal evictions
        evictions += 1
        cycle = times.pop(op)
        mrt.remove_lowered(lowered[op], cycle)

    def evict_resource_conflicts(op: int, cycle: int) -> None:
        """Make room for a forced placement by evicting other occupants.

        Lower-priority occupants of the contested (slot, resource) pairs
        go first; they will be rescheduled on later iterations of the
        main loop.  The contested-pair scan follows the reservation
        table's *declared* use order (not the lowered sorted form) so the
        eviction sequence matches the original implementation exactly.
        """
        lt = lowered[op]
        table = tables[op]
        while not mrt.fits_lowered(lt, cycle):
            needed = None
            for use in table.uses:
                slot = (cycle + use.offset) % ii
                if mrt.used_at(slot, use.resource) + use.count > machine.availability[use.resource]:
                    needed = (slot, use.resource)
                    break
            if needed is None:  # self-conflict (op longer than II): hopeless
                return
            slot, resource = needed
            victims = [
                other
                for other in times
                if other != op
                and any(
                    (times[other] + u.offset) % ii == slot and u.resource == resource
                    for u in tables[other].uses
                )
            ]
            if not victims:
                return
            victim = min(victims, key=lambda o: (heights[o], -o))
            unplace(victim)

    result_times: Optional[Dict[int, int]] = None
    while True:
        op = priority_pick()
        if op is None:
            result_times = dict(times)
            break
        if placements >= budget:
            break
        placements += 1
        estart = earliest_start(op)
        lt = lowered[op]
        chosen = None
        # First conflict-free cycle in [estart, estart + II): one blocked
        # mask replaces the cycle-by-cycle probing (the II-wide window
        # visits every modulo slot exactly once).
        free = ~mrt.blocked_mask(lt) & wrap
        if free:
            r = estart % ii
            aligned = ((free >> r) | (free << (ii - r))) & wrap
            chosen = estart + (aligned & -aligned).bit_length() - 1
        if chosen is None:
            # Forced placement: never the same cycle as last time.
            chosen = max(estart, last_cycle.get(op, -1) + 1)
            evict_resource_conflicts(op, chosen)
            if not mrt.fits_lowered(lt, chosen):
                break  # an op that cannot coexist with itself at this II
        mrt.place_lowered(lt, chosen)
        times[op] = chosen
        last_cycle[op] = chosen
        # Displace successors whose dependence constraints are now violated
        # (predecessors were respected via the earliest start).
        for dst, w in succ_arcs[op]:
            t = times.get(dst)
            if t is not None and t - chosen < w:
                unplace(dst)
        for src, w in pred_arcs[op]:
            t = times.get(src)
            if t is not None and chosen - t < w:
                unplace(src)

    if stats is not None:
        stats.placements += placements
        stats.evictions += evictions
    rec = get_recorder()
    if rec.enabled:
        rec.counter("rau.placements", placements)
        rec.counter("rau.evictions", evictions)
        rec.event(
            "rau.attempt",
            loop=loop.name,
            ii=ii,
            success=result_times is not None,
            placements=placements,
            evictions=evictions,
        )
    return result_times


def rau_pipeline_loop(
    loop: Loop,
    machine: Optional[MachineDescription] = None,
    options: Optional[RauOptions] = None,
) -> PipelineResult:
    """Full Rau94 pipeliner: linear II search, allocation, spilling.

    Returns the heuristic result type the SGI driver returns, with no
    winning order and ``spill_rounds`` 1 when any value was spilled (the
    spilled set is what Rau94 reports; any spill means the scheduled loop
    is not the pristine one).  ``options`` is the registry's calling
    convention; :class:`RauOptions` has no field.
    """
    machine = machine if machine is not None else r8000()
    stats = SchedulingStats()
    run = spill_loop(loop, machine, "rau", lambda current, _: _linear_round(current, machine, stats))
    return heuristic_result(loop, machine, stats, run, run[0].best, 1 if run[2] else 0)


def _linear_round(loop: Loop, machine: MachineDescription, stats: SchedulingStats) -> RoundOutcome:
    """One Rau94 round: IIs linearly from MinII until a schedule allocates;
    the first schedule that fails allocation is the one spilled from."""
    outcome = RoundOutcome()
    for ii in range(compute_min_ii(loop, machine), max_ii(loop, machine) + 1):
        start = _time.perf_counter()
        placed = stats.placements
        with get_recorder().span("rau.ii", loop=loop.name, ii=ii):
            times = iterative_modulo_schedule(loop, machine, ii, stats)
        seconds = _time.perf_counter() - start
        stats.attempts += 1
        stats.seconds += seconds
        attempt = IIAttempt(
            ii=ii, phase="rau", success=times is not None,
            placements=stats.placements - placed, seconds=seconds,
        )
        outcome.attempted.append(attempt)
        if times is None:
            over = attempt.placements >= placement_budget(loop)
            attempt.stop = "budget" if over else "exhausted"
            continue
        schedule = Schedule(loop=loop, machine=machine, ii=ii, times=times, producer="rau94")
        allocation = allocate_schedule(schedule, machine)
        attempt.allocated, attempt.uncolored = allocation.success, len(allocation.uncolored)
        if allocation.success:
            outcome.best = (schedule, allocation, "")
            break
        if outcome.best_failed is None:
            outcome.best_failed = (schedule, allocation, "")
    return outcome
