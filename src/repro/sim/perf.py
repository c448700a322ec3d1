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
taking the list schedule's completion time.  Every issue falls inside its
iteration's completion time, so the banks see the pipelined walk at
``II = completion``, and both simulators share it.

The walk steps idle cycles while the bellows queue still holds a
reference: a queued reference drains on the next cycle whether or not a
new reference arrives.  A cycle with no arrivals and an empty queue
changes nothing, so the walk skips those.

Fast-forward.  The walk need not visit every trip.  A direct
reference's bank is bit 3 of ``first + n * stride``, so it repeats every
``16 / gcd(|stride|, 16)`` iterations.  Inside the steady window
``[max t0, min t0 + trips * II)`` every memory operation issues once per
II, so when every reference is direct the window's arrivals repeat every
``L = lcm(periods) * II`` cycles.  The banks' only state is the bellows
queue, a short tuple of bank ids, and one period's arrivals map the queue
at its start to the queue at its end.  A finite state stepped by a fixed
map must revisit a state: once the queue at a period boundary equals the
queue at an earlier one, every later period repeats the stalls in between.
The simulator therefore steps periods until a boundary queue repeats,
adds the repeated stalls once per whole repeat that fits, and steps the
rest of the window and the drain as usual.  The count is exact: it is the
walk's count, not an estimate.  Indirect (hashed) streams have no period
and are walked cycle by cycle.
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
#: Arrivals over a span of cycles: (cycle offset into the span, the banks
#: arriving in that cycle in memory-operation order), in cycle order.
Arrivals = List[Tuple[int, List[int]]]


class BankedMemory:
    """The two banks + bellows queue, stepped one cycle at a time.

    Each bank services one reference per cycle.  Same-cycle arrivals beyond
    a bank's bandwidth spill into a single shared overflow queue of depth
    ``bellows_depth``; arrivals that find the queue full stall the
    processor until the queue drains enough to accept them.

    ``step`` returns the number of stall cycles the cycle's arrivals cost.
    The memory has few states (the queued banks), so each (queue, arrivals)
    outcome is computed once and replayed.  A cycle with no arrivals and an
    empty queue changes nothing, so ``run`` skips those.
    """

    def __init__(self, banks: int = 2, bellows_depth: int = 1):
        self.banks = banks
        self.depth = bellows_depth
        self._all = (1 << banks) - 1  # every bank free
        self._queued: Queue = ()  # bank ids of queued references
        self._outcomes: Dict[Tuple[Queue, Tuple[int, ...]], Tuple[int, Queue]] = {}

    @property
    def queue(self) -> Queue:
        """The banks of the queued references: the memory's whole state."""
        return self._queued

    def run(self, arrivals: Arrivals, span: int) -> int:
        """Step through ``span`` cycles carrying ``arrivals``; their stalls.

        Idle cycles are stepped only while the queue still drains, through
        the last cycle of the span, so the queue afterwards is the state
        at the span's end.
        """
        stalls = 0
        now = 0  # the first cycle not stepped yet
        for cycle, banks in arrivals:
            while now < cycle and self._queued:
                self.step(())
                now += 1
            stalls += self.step(banks)
            now = cycle + 1
        while now < span and self._queued:
            self.step(())
            now += 1
        return stalls

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


@dataclass(frozen=True)
class _Stream:
    """One memory operation's references: issue ``t0 + n * II``."""

    op_index: int
    t0: int
    first: Optional[int]  # address in iteration 0; None for an indirect reference
    stride: int

    @property
    def period(self) -> int:
        """Iterations after which a direct reference's bank repeats."""
        return 16 // math.gcd(self.stride, 16)


def _streams(schedule: Schedule, layout: DataLayout) -> List[_Stream]:
    streams = []
    for op in schedule.loop.memory_ops():
        m = op.mem
        first = layout.bases[m.base] + m.offset if m.is_direct else None
        streams.append(_Stream(op.index, schedule.time(op.index), first, m.stride))
    return streams


def _arrivals(
    streams: Sequence[_Stream], layout: DataLayout, ii: int, trips: int, lo: int, hi: int
) -> Arrivals:
    """The arrivals of iterations ``0 .. trips-1`` in cycles ``[lo, hi)``.

    Direct references are an arithmetic stream, so their banks come
    straight from the first address; indirect ones ask the layout.
    """
    events: Dict[int, List[int]] = {}
    for s in streams:
        first_n = max(0, -((s.t0 - lo) // ii))  # ceil((lo - t0) / II)
        last_n = min(trips, -((s.t0 - hi) // ii))
        iterations = range(first_n, last_n)
        if s.first is not None:
            banks = [(s.first + n * s.stride) >> 3 & 1 for n in iterations]
        else:
            banks = [layout.bank(s.op_index, n) for n in iterations]
        cycles = range(s.t0 - lo + first_n * ii, s.t0 - lo + last_n * ii, ii)
        for cycle, bank in zip(cycles, banks):
            events.setdefault(cycle, []).append(bank)
    return sorted(events.items())


def _bank_stalls(
    schedule: Schedule, layout: DataLayout, machine: MachineDescription, trips: int, ii: int
) -> int:
    """Bank stalls of ``trips`` iterations of ``schedule`` started every
    ``ii`` cycles (see the module notes)."""
    streams = _streams(schedule, layout)
    memory = BankedMemory(machine.memory_banks, machine.bellows_depth)

    def walk(lo: int, hi: int) -> int:
        return memory.run(_arrivals(streams, layout, ii, trips, lo, hi), hi - lo)

    # From ``steady`` on every stream has started; it issues once per II.
    steady = max(s.t0 for s in streams)
    end = steady + (trips - 1) * ii + 1  # past the last issue
    if any(s.first is None for s in streams):
        return walk(0, end)
    period = ii * math.lcm(*(s.period for s in streams))
    whole = max(0, (min(s.t0 for s in streams) + trips * ii - steady) // period)
    stalls = walk(0, steady)
    one_period = _arrivals(streams, layout, ii, trips, steady, steady + period) if whole else []
    seen: Dict[Queue, Tuple[int, int]] = {}  # boundary queue -> (period, stalls so far)
    k = 0
    while k < whole:
        if memory.queue in seen:
            j, before = seen[memory.queue]
            repeats = (whole - k) // (k - j)
            stalls += repeats * (stalls - before)
            k += repeats * (k - j)
            break
        seen[memory.queue] = (k, stalls)
        stalls += memory.run(one_period, period)
        k += 1
    return stalls + walk(steady + k * period, end)


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
        stalls = _bank_stalls(schedule, layout, machine, trips, ii)
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
        # Every issue falls inside its iteration's ``completion`` cycles, so
        # back-to-back iterations are the pipelined walk at II = completion.
        stalls = _bank_stalls(schedule, layout, machine, trips, completion)
    cycles = trips * completion + stalls
    return SimReport(
        cycles=cycles,
        stall_cycles=stalls,
        memory_refs=len(loop.memory_ops()) * trips,
        trips=trips,
    )
