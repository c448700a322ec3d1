"""Cycle-level performance simulation with the R8000 banked memory system.

The dynamic effect that decides Figures 2, 4, 5 and 6 is the interaction
between dual-issued memory references and the two-banked streaming cache
(Section 2.9): two same-cycle references to the same bank push one into a
one-element queue (the "bellows"); when the queue is already full the
processor stalls, in the worst case every cycle — half speed.

Pipelined execution: operation instances issue at ``t(op) + n * II``; total
time is ``span + (trips - 1) * II`` plus memory stall cycles plus the
fill/drain/save-restore overhead from :mod:`repro.pipeline.overhead`.

Baseline (non-pipelined) execution: iterations run back to back, each
taking the list schedule's completion time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.sched import Schedule
from ..machine.descriptions import MachineDescription
from ..pipeline.overhead import OverheadReport
from .layout import DataLayout


@dataclass
class SimReport:
    """Outcome of a performance simulation."""

    cycles: int
    stall_cycles: int
    memory_refs: int
    trips: int
    overhead_cycles: int = 0

    @property
    def cycles_per_iteration(self) -> float:
        return self.cycles / max(self.trips, 1)


Queue = Tuple[int, ...]  # bank ids of the references in the bellows queue


class BankedMemory:
    """The two banks + bellows queue, stepped one cycle at a time.

    Each bank services one reference per cycle.  Same-cycle arrivals beyond
    a bank's bandwidth spill into a single shared overflow queue of depth
    ``bellows_depth``; arrivals that find the queue full stall the
    processor until the queue drains enough to accept them.

    ``step`` returns the number of stall cycles the cycle's arrivals cost.
    The memory has few states (the queued banks), so each (queue, arrivals)
    outcome is computed once and replayed.  A cycle with no arrivals and an
    empty queue changes nothing, so callers may skip it (``busy`` says
    whether an idle cycle would drain anything).
    """

    def __init__(self, banks: int = 2, bellows_depth: int = 1):
        self.banks = banks
        self.depth = bellows_depth
        self._all = (1 << banks) - 1  # every bank free
        self._queued: Queue = ()  # bank ids of queued references
        self._outcomes: Dict[Tuple[Queue, Tuple[int, ...]], Tuple[int, Queue]] = {}

    @property
    def busy(self) -> bool:
        return bool(self._queued)

    def step(self, arrivals: Sequence[int]) -> int:
        key = (self._queued, tuple(arrivals))
        outcome = self._outcomes.get(key)
        if outcome is None:
            outcome = self._outcomes[key] = self._advance(*key)
        stalls, self._queued = outcome
        return stalls

    def _service(self, queue: List[int]) -> Tuple[List[int], int]:
        """One cycle of the banks on ``queue``: what stays queued, free banks."""
        free = self._all
        remaining: List[int] = []
        for bank in queue:
            if free >> bank & 1:
                free ^= 1 << bank
            else:
                remaining.append(bank)
        return remaining, free

    def _advance(self, queued: Queue, arrivals: Tuple[int, ...]) -> Tuple[int, Queue]:
        """One cycle from queue ``queued``: its stalls and the next queue."""
        # Queued references from earlier cycles get first claim on banks.
        still_queued, free = self._service(list(queued))
        stalls = 0
        for bank in arrivals:
            bank %= self.banks
            if free >> bank & 1:
                free ^= 1 << bank
                continue
            while len(still_queued) >= self.depth:
                # Processor stalls one cycle; banks service the queue.
                stalls += 1
                still_queued, _ = self._service(still_queued)
            still_queued.append(bank)
        return stalls, tuple(still_queued)


def _bank_stream(layout: DataLayout, op_index: int, trips: int) -> List[int]:
    """Banks hit by ``op_index`` in iterations ``0 .. trips-1``.

    Direct references are an arithmetic stream, so their banks come
    straight from the base address; indirect ones ask the layout.
    """
    m = layout.loop.ops[op_index].mem
    if m is not None and m.is_direct:
        first = layout.bases[m.base] + m.offset
        return [(first + n * m.stride) >> 3 & 1 for n in range(trips)]
    return [layout.bank(op_index, n) for n in range(trips)]


def simulate_pipelined(
    schedule: Schedule,
    layout: DataLayout,
    machine: MachineDescription,
    trips: Optional[int] = None,
    overhead: Optional[OverheadReport] = None,
) -> SimReport:
    """Simulate the pipelined loop for ``trips`` iterations."""
    loop = schedule.loop
    ii = schedule.ii
    if trips is None:
        trips = loop.trip_count
    n_refs = len(loop.memory_ops()) * trips
    stalls = 0
    if machine.has_banked_memory and loop.memory_ops():
        memory = BankedMemory(machine.memory_banks, machine.bellows_depth)
        # Instance (op, n) issues at t(op) + n*II; walk issue cycles in order,
        # stepping idle cycles only while the bellows queue still drains.
        events: Dict[int, List[int]] = {}
        for op in loop.memory_ops():
            t0 = schedule.time(op.index)
            cycles = range(t0, t0 + trips * ii, ii)
            for cycle, bank in zip(cycles, _bank_stream(layout, op.index, trips)):
                events.setdefault(cycle, []).append(bank)
        next_cycle = 0  # the first cycle not stepped yet
        for cycle in sorted(events):
            while next_cycle < cycle and memory.busy:
                memory.step([])
                next_cycle += 1
            stalls += memory.step(events[cycle])
            next_cycle = cycle + 1
    span = schedule.span
    base_cycles = span + (trips - 1) * ii
    extra = overhead.total if overhead is not None else 0
    return SimReport(
        cycles=base_cycles + stalls + extra,
        stall_cycles=stalls,
        memory_refs=n_refs,
        trips=trips,
        overhead_cycles=extra,
    )


def simulate_sequential_body(
    schedule: Schedule,
    layout: DataLayout,
    machine: MachineDescription,
    trips: Optional[int] = None,
) -> SimReport:
    """Simulate a non-pipelined loop: iterations execute back to back.

    ``schedule`` here is a single-iteration (list) schedule; each
    iteration occupies ``completion`` cycles — the last issue plus its
    latency — before the next one starts (plus one cycle of loop-control
    overhead per iteration).
    """
    loop = schedule.loop
    if trips is None:
        trips = loop.trip_count
    # One iteration occupies its issue length plus a cycle of loop control;
    # an in-order machine additionally stalls the next iteration until any
    # loop-carried producer has completed.
    issue_len = 2 + max(schedule.time(op.index) for op in loop.ops)
    carried_stall = 0
    for arc in loop.ddg.arcs:
        if arc.omega <= 0:
            continue
        need = schedule.time(arc.src) + arc.latency - schedule.time(arc.dst)
        carried_stall = max(carried_stall, math.ceil(need / arc.omega))
    completion = max(issue_len, carried_stall)
    stalls = 0
    if machine.has_banked_memory and loop.memory_ops():
        memory = BankedMemory(machine.memory_banks, machine.bellows_depth)
        mem_ops = loop.memory_ops()
        for n in range(trips):
            base = n * completion
            events: Dict[int, List[int]] = {}
            for op in mem_ops:
                events.setdefault(base + schedule.time(op.index), []).append(
                    layout.bank(op.index, n)
                )
            for cycle in sorted(events):
                stalls += memory.step(events[cycle])
    cycles = trips * completion + stalls
    return SimReport(
        cycles=cycles,
        stall_cycles=stalls,
        memory_refs=len(loop.memory_ops()) * trips,
        trips=trips,
    )
