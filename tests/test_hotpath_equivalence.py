"""Differential tests of the raw-speed campaign's hot-path rewrites.

The campaign's contract is *bit-identical outcomes, only speed moves*:

* :class:`PackedModuloReservationTable` must agree with the original
  :class:`DictModuloReservationTable` (kept below as the reference) on
  every ``fits/place/remove/used_at`` observation — hypothesis drives
  random reservation tables, IIs and availability maps through identical
  operation sequences on both;
* memoized :class:`SccDistanceTables` (parametric Pareto profiles) must
  match the per-II Floyd-Warshall (:class:`FloydWarshallTables` below) on
  every corpus loop at MinII..MinII+4;
* the branch-and-bound scheduler must produce identical schedules *and*
  identical search effort (placements/backtracks/prunes) with the dict
  tables swapped back in underneath it.

A regression test for the ``_mem_at_slot`` fix rides along: the old
``List.remove`` bookkeeping corrupted co-resident-memory-op tracking when
one op cycled through place/unplace repeatedly under backtracking.

The per-cell fixed costs follow the same contract, each against the
straightforward code it replaced (kept below as the reference):

* the bitset :class:`InterferenceGraph` must equal the pairwise
  ``LiveRange.overlaps`` graph, and :func:`color_graph` must give the same
  assignment and ``uncolored`` order as the list-scan colourer;
* :func:`simulate_pipelined` (busy cycles only, arithmetic bank streams,
  the steady state fast-forwarded) must return the same
  :class:`SimReport` as the walk over every cycle and as the full walk
  over every trip, and :func:`simulate_sequential_body` (that walk at
  II = completion) the same as stepping one iteration at a time;
* the decoded functional runs must give the results of the per-instance
  runs, and the per-replica emitter the per-instance listing, byte for
  byte;
* bank repair, costing each distinct schedule once, must pick the same
  schedule and allocation as costing every form;
* the emitted-code clobber check (EMIT002: flow arcs grouped by producer,
  each register's writes bisected by cycle) must give the same report,
  messages and order included, as the scan of every arc and every write;
* RecMII searched over the arcs inside one SCC, the exec cell's
  ``schedulable_bound`` and SCHED004 decided at the schedule's II must
  give the full-graph search's RecMII (or its ``ValueError``),
  ``compute_bounds(...).refined_bound`` and the binary-search audit's
  report, byte for byte.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyze import bounds
from repro.analyze.bounds import compute_bounds, schedulable_bound
from repro.baseline.list_scheduler import list_schedule
from repro.core import driver
from repro.core.bankpolish import polish_bank_schedule
from repro.core import bnb
from repro.core.bnb import BnBConfig, BnBResult, _Attempt, modulo_schedule_bnb, prepare_attempt
from repro.core.driver import PipelinerOptions, pipeline_loop
from repro.core.membank import BankPairer
from repro.core.pipestage import adjust_pipestages
from repro.core.sched import Schedule, SchedulingStats
from repro.ir.builder import LoopBuilder
from repro.exec.cells import Cell, resolve_loop
from repro.exec.runner import execute_cell
from repro.ir.ddg import DDG, Dependence, DepKind
from repro.ir.loop import Loop
from repro.ir.operations import MemRef, OpClass, Operation, RegClass
from repro.core.distances import SccDistanceTables
from repro.core.minii import _search_rec_mii, min_ii, res_mii
from repro.core.priorities import production_orders
from repro.machine.descriptions import MachineDescription, r8000, single_issue
from repro.machine.resources import (
    PackedModuloReservationTable,
    ReservationTable,
    ResourceUse,
)
from repro.pipeline.emit import PipelinedCode, emit_pipelined_code
from repro.pipeline.overhead import pipeline_overhead
from repro.regalloc.coloring import InterferenceGraph, color_graph
from repro.regalloc.rename import LiveRange, rename_kernel
from repro.sim.functional import (
    ExecutionResult,
    _evaluate,
    _use_omegas,
    run_pipelined,
    run_sequential,
)
from repro.sim.layout import DataLayout
from repro.sim.perf import (
    BankedMemory,
    SimReport,
    simulate_pipelined,
    simulate_sequential_body,
)
from repro.verify import check_schedule, emitcheck, schedcheck
from repro.verify.diagnostics import Severity
from repro.workloads.generators import GeneratorConfig, random_loop, random_spec
from repro.workloads.livermore import livermore_kernels
from repro.workloads.recbound import recbound_kernels
from repro.workloads.spec92 import spec92_suite

MACHINE = r8000()


class DictModuloReservationTable:
    """The original per-slot dict probing implementation.

    The differential-testing oracle for :class:`PackedModuloReservationTable`.
    It also implements the lowered fast-path API (by ignoring the lowering)
    so the schedulers run unmodified against either implementation.
    """

    def __init__(self, ii: int, availability: Dict[str, int]):
        if ii <= 0:
            raise ValueError(f"II must be positive, got {ii}")
        self.ii = ii
        self.availability = dict(availability)
        self._used: List[Dict[str, int]] = [dict() for _ in range(ii)]

    def fits(self, table: ReservationTable, cycle: int) -> bool:
        """Can an operation with this reservation table issue at ``cycle``?

        An operation longer than II can collide with *itself* across
        iterations (several of its uses land in the same modulo slot), so
        pending usage is accumulated while checking.
        """
        pending: Dict[Tuple[int, str], int] = {}
        for u in table.uses:
            slot = (cycle + u.offset) % self.ii
            avail = self.availability.get(u.resource)
            if avail is None:
                raise KeyError(f"machine has no resource {u.resource!r}")
            key = (slot, u.resource)
            pending[key] = pending.get(key, 0) + u.count
            if self._used[slot].get(u.resource, 0) + pending[key] > avail:
                return False
        return True

    def place(self, table: ReservationTable, cycle: int) -> None:
        if not self.fits(table, cycle):
            raise ValueError(f"resource conflict placing op at cycle {cycle}")
        for u in table.uses:
            slot = (cycle + u.offset) % self.ii
            used = self._used[slot]
            used[u.resource] = used.get(u.resource, 0) + u.count

    def remove(self, table: ReservationTable, cycle: int) -> None:
        for u in table.uses:
            slot = (cycle + u.offset) % self.ii
            used = self._used[slot]
            remaining = used.get(u.resource, 0) - u.count
            if remaining < 0:
                raise ValueError(f"removing op at cycle {cycle} that was never placed")
            if remaining:
                used[u.resource] = remaining
            else:
                del used[u.resource]

    def used_at(self, slot: int, resource: str) -> int:
        return self._used[slot % self.ii].get(resource, 0)

    def copy(self) -> "DictModuloReservationTable":
        clone = DictModuloReservationTable(self.ii, self.availability)
        clone._used = [dict(d) for d in self._used]
        return clone

    # Lowered-API shims: `lower` returns the reservation table itself, so
    # the scheduler fast paths degrade to the probing implementation.
    def lower(self, table: ReservationTable) -> ReservationTable:
        return table

    def fits_lowered(self, table: ReservationTable, cycle: int) -> bool:
        return self.fits(table, cycle)

    def place_lowered(self, table: ReservationTable, cycle: int) -> None:
        for u in table.uses:
            slot = (cycle + u.offset) % self.ii
            used = self._used[slot]
            used[u.resource] = used.get(u.resource, 0) + u.count

    def remove_lowered(self, table: ReservationTable, cycle: int) -> None:
        self.remove(table, cycle)

    def blocked_mask(self, table: ReservationTable) -> int:
        blocked = 0
        for s in range(self.ii):
            if not self.fits(table, s):
                blocked |= 1 << s
        return blocked


class FloydWarshallTables(SccDistanceTables):
    """The per-II Floyd–Warshall tables the parametric memo replaced."""

    def __init__(self, loop, ii: int):
        self.loop = loop
        self.ii = ii
        self._tables = {}
        self._feasible = True
        for scc in loop.ddg.nontrivial_sccs():
            table = self._floyd_warshall(scc)
            self._tables[loop.ddg.scc_id(scc[0])] = table
            if any(table.get((v, v), float("-inf")) > 0 for v in scc):
                self._feasible = False

RESOURCES = ("issue", "mem", "fp", "fpdiv")

# A random reservation table: 1-5 uses over offsets 0-6, counts 1-3.
tables_strategy = st.lists(
    st.tuples(st.integers(0, 6), st.sampled_from(RESOURCES), st.integers(1, 3)),
    min_size=1,
    max_size=5,
).map(lambda uses: ReservationTable(ResourceUse(o, r, c) for o, r, c in uses))

availability_strategy = st.fixed_dictionaries(
    {name: st.integers(0 if name == "fpdiv" else 1, 4) for name in RESOURCES}
)

# An operation script: (table_index, cycle) probes; each probe tries to
# place if it fits, and every third successful placement is removed again.
script_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.integers(-20, 40)), min_size=1, max_size=40
)


class TestPackedVsDictMrt:
    @given(
        st.lists(tables_strategy, min_size=4, max_size=4),
        availability_strategy,
        st.integers(1, 12),
        script_strategy,
    )
    @settings(max_examples=200)
    def test_fits_place_remove_used_at_agree(self, tables, avail, ii, script):
        packed = PackedModuloReservationTable(ii, avail)
        plain = DictModuloReservationTable(ii, avail)
        placed = []
        for step, (t, cycle) in enumerate(script):
            table = tables[t]
            assert packed.fits(table, cycle) == plain.fits(table, cycle)
            if packed.fits(table, cycle):
                packed.place(table, cycle)
                plain.place(table, cycle)
                placed.append((table, cycle))
            if step % 3 == 2 and placed:
                table, cycle = placed.pop()
                packed.remove(table, cycle)
                plain.remove(table, cycle)
            for slot in range(ii):
                for resource in RESOURCES:
                    assert packed.used_at(slot, resource) == plain.used_at(slot, resource)

    @given(
        tables_strategy,
        availability_strategy,
        st.integers(1, 10),
        st.integers(-10, 20),
    )
    @settings(max_examples=200)
    def test_blocked_mask_matches_per_slot_probing(self, table, avail, ii, cycle):
        packed = PackedModuloReservationTable(ii, avail)
        if packed.fits(table, cycle):
            packed.place(table, cycle)
        lt = packed.lower(table)
        mask = packed.blocked_mask(lt)
        for slot in range(ii):
            assert bool((mask >> slot) & 1) == (not packed.fits_lowered(lt, slot))

    @given(tables_strategy, availability_strategy, st.integers(1, 8))
    @settings(max_examples=100)
    def test_remove_unplaced_raises_in_both(self, table, avail, ii):
        import pytest

        packed = PackedModuloReservationTable(ii, avail)
        plain = DictModuloReservationTable(ii, avail)
        with pytest.raises(ValueError):
            packed.remove(table, 0)
        with pytest.raises(ValueError):
            plain.remove(table, 0)

    def test_unknown_resource_raises_keyerror_in_both(self):
        import pytest

        table = ReservationTable.simple("warp_drive")
        for cls in (PackedModuloReservationTable, DictModuloReservationTable):
            mrt = cls(4, {"mem": 2})
            with pytest.raises(KeyError):
                mrt.fits(table, 0)

    def test_copy_is_independent_in_both(self):
        table = ReservationTable.simple("mem")
        for cls in (PackedModuloReservationTable, DictModuloReservationTable):
            mrt = cls(4, {"mem": 1})
            mrt.place(table, 0)
            clone = mrt.copy()
            clone.remove(table, 0)
            assert mrt.used_at(0, "mem") == 1
            assert clone.used_at(0, "mem") == 0


def _corpus():
    loops = livermore_kernels(MACHINE) + recbound_kernels(MACHINE)
    for bench in spec92_suite(MACHINE):
        loops.extend(bench.loops)
    return loops


class TestMemoizedDistances:
    def test_matches_per_ii_floyd_warshall_on_every_corpus_loop(self):
        for loop in _corpus():
            mii = min_ii(loop, MACHINE)
            for ii in range(mii, mii + 5):
                memoized = SccDistanceTables(loop, ii)
                legacy = FloydWarshallTables(loop, ii)
                assert memoized.feasible == legacy.feasible, (loop.name, ii)
                for scc in loop.ddg.nontrivial_sccs():
                    for src in scc:
                        for dst in scc:
                            assert memoized.dist(src, dst) == legacy.dist(src, dst), (
                                loop.name,
                                ii,
                                src,
                                dst,
                            )

    def test_memo_is_shared_across_instances_of_one_loop(self):
        loop = next(lp for lp in livermore_kernels(MACHINE) if lp.ddg.nontrivial_sccs())
        SccDistanceTables.prime(loop)
        memo = loop.ddg._distance_memo
        SccDistanceTables(loop, min_ii(loop, MACHINE))
        assert loop.ddg._distance_memo is memo


class TestBnBWithDictTables:
    def test_search_outcome_identical_under_dict_tables(self):
        """The reference kernel on dict tables, the reference kernel on packed
        tables and the fused kernel (which reads the packed table's arrays)
        give one schedule and one effort: dict = packed = fused."""

        class DictReferenceAttempt(_ReferenceAttempt):
            table_class = DictModuloReservationTable

        loops = livermore_kernels(MACHINE)[:8]
        results = {}
        for label, kernel in (
            ("dict", DictReferenceAttempt),
            ("packed", _ReferenceAttempt),
            ("fused", _Attempt),
        ):
            per_loop = {}
            for loop in loops:
                ii = min_ii(loop, MACHINE)
                order = production_orders(loop, MACHINE)["FDMS"]
                per_loop[loop.name] = _kernel_outcome(
                    kernel(loop, MACHINE, ii, order, BnBConfig(), None)
                )
            results[label] = per_loop
        assert results["dict"] == results["packed"] == results["fused"]


class TestMemAtSlotRegression:
    def test_place_unplace_churn_keeps_slot_tracking_exact(self):
        """Regression for the ``List.remove`` bookkeeping in ``_mem_at_slot``.

        Two memory ops sharing a modulo slot, with one cycling through
        place/unplace as happens under backtracking: the co-residency map
        feeding ``_cycle_is_risky`` must track exactly the placed ops
        (the count-aware structure also makes unplace O(1) instead of a
        linear list scan).
        """
        loop = next(
            lp
            for lp in livermore_kernels(MACHINE)
            if sum(op.is_memory for op in lp.ops) >= 2
        )
        ii = min_ii(loop, MACHINE)
        order = production_orders(loop, MACHINE)["FDMS"]
        attempt = _Attempt(loop, MACHINE, ii, order, BnBConfig(), None)
        a, b = [op for op in range(loop.n_ops) if attempt._is_mem[op]][:2]
        slot = 3 % ii
        attempt._place(a, slot)
        attempt._place(b, slot + ii)  # same modulo slot, different cycle
        assert attempt._mem_at_slot[slot] == {a: 1, b: 1}
        for _ in range(3):  # backtracking churn on ``a`` only
            attempt._unplace(a)
            assert attempt._mem_at_slot[slot] == {b: 1}
            attempt._place(a, slot)
        assert attempt._mem_at_slot[slot] == {a: 1, b: 1}
        attempt._unplace(b)
        attempt._unplace(a)
        assert attempt._mem_at_slot[slot] == {}


# ---------------------------------------------------------------------------
# The fused branch-and-bound kernel and the MinII-first driver, each against
# the code it replaced (kept below as the reference).


class _ReferenceState:
    """``_State`` as it was: per-position search state.

    ``direction`` is +1 when candidate cycles are tried earliest-first and
    -1 when tried latest-first.  The scan direction is chosen when the
    legal range is computed: an operation constrained only by already-
    scheduled *successors* is placed as late as possible (shortening live
    ranges from their beginnings), one constrained by predecessors as
    early as possible (Section 2.7).
    """

    __slots__ = ("op", "lo", "hi", "next_cycle", "direction", "cycle", "via_pairing")

    def __init__(
        self,
        op: int,
        lo: int,
        hi: int,
        next_cycle: int,
        direction: int = 1,
        cycle: Optional[int] = None,
        via_pairing: bool = False,
    ):
        self.op = op
        self.lo = lo
        self.hi = hi
        self.next_cycle = next_cycle
        self.direction = direction
        self.cycle = cycle
        self.via_pairing = via_pairing

    @property
    def exhausted(self) -> bool:
        if self.direction > 0:
            return self.next_cycle > self.hi
        return self.next_cycle < self.lo

    def candidates(self):
        if self.direction > 0:
            return range(self.next_cycle, self.hi + 1)
        return range(self.next_cycle, self.lo - 1, -1)



class _ReferenceAttempt:
    """The branch-and-bound kernel as it was: one method call per placement
    primitive, and a backtracker that unschedules every position it sweeps
    and re-places those below a rule-3 catch.  ``table_class`` swaps the
    reservation table underneath it."""

    table_class = PackedModuloReservationTable

    def __init__(
        self,
        loop: Loop,
        machine: MachineDescription,
        ii: int,
        priority: Sequence[int],
        config: BnBConfig,
        pairer: Optional[BankPairer],
    ):
        plan = bnb._plan_for(loop, machine, ii, priority)
        base = plan.base
        self.loop = loop
        self.machine = machine
        self.ii = ii
        self.order = plan.order
        self.pos_of = plan.pos_of
        self.config = config
        self.pairer = pairer
        self.dists = base.dists
        self.mrt = self.table_class(ii, machine.availability)
        self.times: Dict[int, int] = {}
        self.states: Dict[int, _ReferenceState] = {}
        # slot -> {memory op: placement count} (count-aware: an op placed
        # and unplaced through backtracking never corrupts its neighbours).
        self._mem_at_slot: Dict[int, Dict[int, int]] = {}
        self.placements = 0
        self.backtracks = 0
        self.prunes: Dict[str, int] = {}
        self.max_depth = 0
        # Per-attempt lowered forms (the lowering is MRT-implementation-
        # specific; each call hits the cache on the ReservationTable).
        mrt = self.mrt
        self._lt = [mrt.lower(t) for t in base.tables]
        self._tkey = base.tkey
        self._is_mem = base.is_mem
        self._in_scc = base.in_scc
        self._rule1_pos = plan.rule1_pos
        self._scc_in = base.scc_in
        self._scc_out = base.scc_out
        self._pred_arcs = base.pred_arcs
        self._succ_arcs = base.succ_arcs
        self._range_inv = base.range_inv
        self._range_cache: Dict[int, Tuple[int, int, int]] = {}

    # ------------------------------------------------------------------
    # Placement primitives
    # ------------------------------------------------------------------
    def _table(self, op: int):
        return self.machine.table(self.loop.ops[op].opclass)

    def _fits(self, op: int, cycle: int) -> bool:
        self.placements += 1
        return self.mrt.fits_lowered(self._lt[op], cycle)

    def _place(self, op: int, cycle: int) -> None:
        self.mrt.place_lowered(self._lt[op], cycle)
        self.times[op] = cycle
        if self._is_mem[op]:
            at_slot = self._mem_at_slot.setdefault(cycle % self.ii, {})
            at_slot[op] = at_slot.get(op, 0) + 1
        cache = self._range_cache
        for dep in self._range_inv[op]:
            cache.pop(dep, None)

    def _unplace(self, op: int) -> int:
        cycle = self.times.pop(op)
        self.mrt.remove_lowered(self._lt[op], cycle)
        if self._is_mem[op]:
            at_slot = self._mem_at_slot[cycle % self.ii]
            remaining = at_slot[op] - 1
            if remaining:
                at_slot[op] = remaining
            else:
                del at_slot[op]
        if self.pairer is not None:
            self.pairer.unnote(op)
        cache = self._range_cache
        for dep in self._range_inv[op]:
            cache.pop(dep, None)
        return cycle

    def _cycle_is_risky(self, op: int, cycle: int) -> bool:
        """Would placing this memory op here share a steady-state cycle
        with a reference whose relative bank is unknown or equal?

        Section 2.9: with the bank heuristics enabled, references "with
        unknowable relative offsets" must not be "grouped together
        unnecessarily" — the scheduler prefers cycles where every
        co-resident reference is a known opposite-bank partner.
        """
        at_slot = self._mem_at_slot.get(cycle % self.ii)
        if not at_slot:
            return False
        times = self.times
        bank = self.pairer.runtime_relative_bank
        for other in at_slot:
            if other == op:
                continue
            if bank(op, cycle, other, times[other]) != 1:
                return True
        return False

    def legal_range(self, op: int) -> Tuple[int, int]:
        lo, hi, _ = self.legal_range_directed(op)
        return lo, hi

    def legal_range_directed(self, op: int) -> Tuple[int, int, int]:
        """Legal cycle range for ``op`` given currently scheduled operations.

        SCC members consult the longest-path table against scheduled
        members of their component; other operations consult their direct
        scheduled predecessors and successors.  The range is clipped to II
        cycles (searching further would revisit the same modulo slots).

        Results are cached; placing or unplacing any operation this range
        depends on (via ``_range_inv``) invalidates the cache entry.
        """
        cached = self._range_cache.get(op)
        if cached is not None:
            return cached
        times = self.times
        lo: Optional[int] = None
        hi: Optional[int] = None
        use_direct_arcs = True
        in_scc = self._in_scc[op]
        if in_scc:
            for member, d_in in self._scc_in[op]:
                t = times.get(member)
                if t is None:
                    continue
                bound = d_in + t
                if lo is None or bound > lo:
                    lo = bound
            for member, d_out in self._scc_out[op]:
                t = times.get(member)
                if t is None:
                    continue
                bound = t - d_out
                if hi is None or bound < hi:
                    hi = bound
            # The first member of a component placed has no hard constraint
            # at all (cross-SCC arcs are repairable by pipestage
            # adjustment); anchor its window near its direct neighbours so
            # the component lands where its consumers/producers are.
            use_direct_arcs = lo is None and hi is None
        soft_bounds = use_direct_arcs and in_scc
        if use_direct_arcs:
            for src, min_dist in self._pred_arcs[op]:
                t = times.get(src)
                if t is None:
                    continue
                bound = t + min_dist
                if lo is None or bound > lo:
                    lo = bound
            for dst, min_dist in self._succ_arcs[op]:
                t = times.get(dst)
                if t is None:
                    continue
                bound = t - min_dist
                if hi is None or bound < hi:
                    hi = bound
        if lo is None and hi is None:
            lo, hi, direction = 0, self.ii - 1, 1
        elif lo is None:
            # Only successors constrain: place as late as possible.
            lo, direction = hi - self.ii + 1, -1
        elif hi is None:
            # Only predecessors constrain: place as early as possible.
            hi, direction = lo + self.ii - 1, 1
        else:
            # Both sides constrain: place next to the consumers.  With the
            # production orders, an operation's not-yet-scheduled inputs
            # will in turn be dragged toward it, keeping live ranges short
            # from their beginnings (Section 2.7).  The II-cycle clip is
            # anchored at the consumer end to match.
            if soft_bounds and lo > hi:
                # Soft (cross-SCC) bounds only: conflicts are repairable by
                # pipestage adjustment, so keep a producer-side window.
                hi = lo + self.ii - 1
            lo = max(lo, hi - self.ii + 1)
            direction = -1
        result = (lo, hi, direction)
        self._range_cache[op] = result
        return result

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------
    def _result(self, times: Optional[Dict[int, int]]) -> BnBResult:
        return BnBResult(
            times, self.placements, self.backtracks, self.prunes, self.max_depth
        )

    def _prune(self, reason: str) -> None:
        self.prunes[reason] = self.prunes.get(reason, 0) + 1

    def run(self) -> BnBResult:
        if not self.dists.feasible:
            return self._result(None)
        n = self.loop.n_ops
        order = self.order
        times = self.times
        states = self.states
        max_placements = self.config.max_placements
        max_backtracks = self.config.max_backtracks
        try_place = self._try_place
        legal_range_directed = self.legal_range_directed
        i = 0
        while i < n:
            if self.placements > max_placements:
                return self._result(None)
            op = order[i]
            if op in times:
                i += 1  # already scheduled as someone's bank partner
                continue
            if i > self.max_depth:
                self.max_depth = i
            state = states.get(i)
            if state is None:
                lo, hi, direction = legal_range_directed(op)
                start = lo if direction > 0 else hi
                state = _ReferenceState(op=op, lo=lo, hi=hi, next_cycle=start, direction=direction)
                states[i] = state
            if try_place(i, state):
                i += 1
                continue
            catch = self._backtrack(i)
            if catch is None or self.backtracks >= max_backtracks:
                return self._result(None)
            self.backtracks += 1
            i = catch
        return self._result(dict(times))

    def _first_fit(self, op: int, state: _ReferenceState) -> Tuple[Optional[int], int]:
        """First workable cycle in ``state.candidates()`` plus probe count.

        Probe-for-probe equivalent to scanning ``state.candidates()`` with
        :meth:`_fits`: the returned count is exactly the number of cycles
        the sequential scan would have probed (all of them on failure), so
        ``placements`` budgets cut off identically.  The candidate window
        never exceeds II cycles, so each modulo slot is visited at most
        once and one ``blocked_mask`` covers the whole scan.
        """
        ii = self.ii
        wrap = (1 << ii) - 1
        if state.direction > 0:
            start = state.next_cycle
            span = state.hi - start + 1
            if span <= 0:
                return None, 0
            free = ~self.mrt.blocked_mask(self._lt[op]) & wrap
            r = start % ii
            aligned = ((free >> r) | (free << (ii - r))) & ((1 << span) - 1)
            if not aligned:
                return None, span
            offset = (aligned & -aligned).bit_length() - 1
            return start + offset, offset + 1
        start = state.next_cycle
        span = start - state.lo + 1
        if span <= 0:
            return None, 0
        free = ~self.mrt.blocked_mask(self._lt[op]) & wrap
        r = state.lo % ii
        aligned = ((free >> r) | (free << (ii - r))) & ((1 << span) - 1)
        if not aligned:
            return None, span
        offset = aligned.bit_length() - 1  # highest free bit = latest cycle
        return state.lo + offset, span - offset

    def _try_place(self, pos: int, state: _ReferenceState) -> bool:
        """Place the operation at ``pos`` at the next workable cycle."""
        op = state.op
        if (
            self.pairer is not None
            and self.pairer.want_more_pairs()
            and self.pairer.is_pairable(op)
            and self.pairer.mate_of(op) is None
        ):
            cycle = self._scan_with_pairing(state)
            if cycle is not None:
                state.cycle = cycle
                state.next_cycle = cycle + state.direction
                return True
            # No cycle admits a pair; fall through and place unpaired.
        avoid_risk = self.pairer is not None and self._is_mem[op]
        if not avoid_risk or not self._mem_at_slot:
            # With no memory op placed anywhere, no cycle can be risky: the
            # risk-avoiding scan degenerates to plain first-fit (same visit
            # order), so both cases take the batched path.  Probe parity:
            # the two-pass risky scan re-probes every candidate in its
            # second pass when the first finds nothing, hence the doubled
            # charge on failure.
            cycle, probes = self._first_fit(op, state)
            self.placements += probes if cycle is not None or not avoid_risk else 2 * probes
            if cycle is not None:
                self._place(op, cycle)
                state.cycle = cycle
                state.next_cycle = cycle + state.direction
                return True
        else:
            # Riskiness depends on co-resident memory ops, so this scan
            # stays cycle by cycle; the fit test itself is one bit probe
            # (occupancy cannot change mid-scan).
            blocked = self.mrt.blocked_mask(self._lt[op])
            ii = self.ii
            cycle_is_risky = self._cycle_is_risky
            for risky_allowed in (False, True):
                for cycle in state.candidates():
                    if not risky_allowed and cycle_is_risky(op, cycle):
                        continue
                    self.placements += 1
                    if not (blocked >> (cycle % ii)) & 1:
                        self._place(op, cycle)
                        state.cycle = cycle
                        state.next_cycle = cycle + state.direction
                        return True
        state.next_cycle = (state.hi + 1) if state.direction > 0 else (state.lo - 1)
        state.cycle = None
        return False

    def _scan_with_pairing(self, state: _ReferenceState) -> Optional[int]:
        """Find a cycle where the op fits *and* a known opposite-bank partner
        can be placed alongside it; place both on success."""
        op = state.op
        fits = self.mrt.fits_lowered
        lt = self._lt[op]
        for cycle in state.candidates():
            self.placements += 1  # same probe accounting as _fits
            if not fits(lt, cycle):
                continue
            self._place(op, cycle)
            if self._pair_partner(op, cycle):
                return cycle
            self._unplace(op)
        return None

    def _pair_partner(self, op: int, cycle: int) -> bool:
        """Try to schedule the first possible element of L(op) at ``cycle``."""
        pairer = self.pairer
        times = self.times
        fits = self.mrt.fits_lowered
        lts = self._lt
        for partner in pairer.partners_of(op):
            if partner in times or pairer.mate_of(partner) is not None:
                continue
            lo, hi = self.legal_range(partner)
            if not (lo <= cycle <= hi):
                continue
            self.placements += 1  # same probe accounting as _fits
            if not fits(lts[partner], cycle):
                continue
            self._place(partner, cycle)
            pairer.note_pair(op, partner)
            ppos = self.pos_of[partner]
            self.states[ppos] = _ReferenceState(
                op=partner, lo=cycle, hi=cycle, next_cycle=cycle + 1,
                cycle=cycle, via_pairing=True,
            )
            return True
        return False

    # ------------------------------------------------------------------
    # Backtracking with catch-point pruning
    # ------------------------------------------------------------------
    def _backtrack(self, fail_pos: int) -> Optional[int]:
        """Unschedule a suffix and choose the catch point for ``fail_pos``.

        Sweeps positions downward, unscheduling as it goes, testing each as
        a catch point under the pruning rules.  On success, positions below
        the catch are restored exactly as they were.
        """
        target = self.order[fail_pos]
        removed: List[Tuple[int, int, Optional[int]]] = []  # (pos, cycle, mate)
        rule3_catch: Optional[int] = None
        rule3_depth: Optional[int] = None
        catch: Optional[int] = None
        target_lt = self._lt[target]
        target_tkey = self._tkey[target]
        ii = self.ii

        for j in range(fail_pos - 1, -1, -1):
            state = self.states.get(j)
            if state is None or state.cycle is None:
                continue
            jop = self.order[j]
            if jop not in self.times:
                continue
            old_cycle = state.cycle
            mate = self.pairer.mate_of(jop) if self.pairer is not None else None
            self._unplace(jop)
            state.cycle = None
            removed.append((j, old_cycle, mate))
            if mate is not None and mate in self.times:
                mate_pos = self.pos_of[mate]
                if mate_pos > fail_pos:
                    # Out-of-band partner ahead of the failure point: it was
                    # only scheduled for this pair, so release it too.
                    mstate = self.states.get(mate_pos)
                    removed.append((mate_pos, self.times[mate], jop))
                    self._unplace(mate)
                    if mstate is not None:
                        self.states.pop(mate_pos, None)
            if state.via_pairing:
                continue  # partners have no range of their own; cannot catch
            if not self.config.prune:
                if not state.exhausted:
                    catch = j
                    break
                continue
            if self._rule1_pos[j] != j:
                self._prune("rule1")
                continue  # rule 1
            if state.exhausted:
                self._prune("exhausted")
                continue
            lo, hi = self.legal_range(target)
            span = hi - lo + 1
            if span <= 0:
                self._prune("no_slot")
                continue
            # One blocked_mask stands in for probing every cycle of
            # [lo, hi]; the probes are still charged to the budget.
            self.placements += span
            free = ~self.mrt.blocked_mask(target_lt) & ((1 << ii) - 1)
            r = lo % ii
            open_mask = ((free >> r) | (free << (ii - r))) & ((1 << span) - 1)
            if not open_mask:
                self._prune("no_slot")
                continue
            if self._tkey[jop] != target_tkey:
                self._prune("catch_rule2")
                catch = j  # rule 2: non-identical resources, now schedulable
                break
            if self.config.use_rule3 and rule3_catch is None:
                # Any open cycle in a *different* modulo slot than the
                # unscheduled op's old cycle?  Bit p of open_mask is cycle
                # lo + p; the old slot recurs every II bits.
                same_slot = 0
                p = (old_cycle - lo) % ii
                while p < span:
                    same_slot |= 1 << p
                    p += ii
                if open_mask & ~same_slot:
                    rule3_catch = j
                    rule3_depth = len(removed)
                    continue
            self._prune("same_resource")

        if catch is None and rule3_catch is not None:
            self._prune("catch_rule3")
            catch = rule3_catch
            # Restore everything removed after the rule-3 sweep passed it.
            self._restore(removed[rule3_depth:])
            removed = removed[:rule3_depth]
        if catch is None:
            return None
        # Positions above the catch start over with fresh legal ranges.
        for pos in range(catch + 1, self.loop.n_ops):
            if self.order[pos] not in self.times:
                self.states.pop(pos, None)
        return catch

    def _restore(self, entries: List[Tuple[int, int, Optional[int]]]) -> None:
        """Re-place unscheduled entries (in increasing position order)."""
        for pos, cycle, mate in reversed(entries):
            op = self.order[pos]
            self._place(op, cycle)
            state = self.states.get(pos)
            if state is None:
                self.states[pos] = _ReferenceState(
                    op=op, lo=cycle, hi=cycle, next_cycle=cycle + 1,
                    cycle=cycle, via_pairing=True,
                )
            else:
                state.cycle = cycle
            if (
                mate is not None
                and self.pairer is not None
                and mate in self.times
                and self.pairer.mate_of(op) is None
                and self.pairer.mate_of(mate) is None
            ):
                self.pairer.note_pair(op, mate)



def _kernel_outcome(attempt) -> tuple:
    """Everything an attempt decides: times (insertion order included) and
    its effort counters."""
    result = attempt.run()
    times = None if result.times is None else list(result.times.items())
    return times, result.placements, result.backtracks, dict(result.prunes), result.max_depth


def _assert_kernels_agree(loop, ii, order, config, with_pairer=False, label="", machine=MACHINE):
    outcomes = [
        _kernel_outcome(kernel(
            loop, machine, ii, order, config,
            BankPairer(loop, ii, order) if with_pairer else None,
        ))
        for kernel in (_Attempt, _ReferenceAttempt)
    ]
    assert outcomes[0] == outcomes[1], (loop.name, ii, label, config, with_pairer)


#: The search knobs no production caller sets, each on the off path.
KNOBS = (
    BnBConfig(prune=False, max_backtracks=60),
    BnBConfig(use_rule3=False),
    BnBConfig(max_backtracks=3),
    BnBConfig(max_placements=150),
)


class TestFusedKernelVsReference:
    def test_every_corpus_loop_and_production_order_at_min_ii(self):
        for loop in _corpus():
            ii = min_ii(loop, MACHINE)
            for name, order in production_orders(loop, MACHINE).items():
                _assert_kernels_agree(loop, ii, order, BnBConfig(), label=name)

    def test_bank_pairer_attempt_at_each_loops_sgi_ii(self):
        for result in _corpus_results():
            if result.success:
                order = production_orders(result.loop, MACHINE)[result.order_name]
                _assert_kernels_agree(
                    result.loop, result.ii, order, BnBConfig(), with_pairer=True
                )

    def test_a_partner_released_below_a_rule3_catch_keeps_the_times_order(self):
        """A bank partner placed out of band sits below a rule-3 catch: the
        reference unscheduled and re-placed it before its primary, so the
        fused kernel reorders ``times`` to match (a drawn tiny loop; the
        corpus never produces this shape)."""
        loop = _tiny_loop(
            [0, 24, 16, 0, 8], 4,
            [(5, 8, 2, 0), (7, 5, 1, 1), (7, 4, 3, 0), (2, 7, 1, 1), (8, 2, 2, 0), (8, 6, 2, 1)],
        )
        _assert_kernels_agree(loop, 3, [6, 1, 7, 8, 3, 4, 2, 0, 5], BnBConfig(), with_pairer=True)

    def test_a_first_memory_op_that_fails_is_charged_twice(self):
        """With a pairer, a memory op that fails before any memory op is
        placed is charged both passes of the risk-avoiding scan: on one
        issue slot an add takes the only cycle of the load's window."""
        loop = _tiny_loop([0], 2, [(1, 0, 1, 0), (0, 1, 2, 1)])
        _assert_kernels_agree(
            loop, 3, [1, 2, 0], BnBConfig(), with_pairer=True, machine=single_issue()
        )

    @pytest.mark.parametrize("config", KNOBS, ids=("no-prune", "no-rule3", "3-backtracks", "150-placements"))
    def test_search_knobs_on_generated_loops(self, config):
        for i, loop in enumerate(_stratified_loops(0)[:40]):
            ii = min_ii(loop, MACHINE)
            order = production_orders(loop, MACHINE)[("FDMS", "HMS")[i % 2]]
            _assert_kernels_agree(loop, ii, order, config, with_pairer=i % 4 < 2)


def _tiny_loop(offsets, n_fadd, arcs):
    """Loads of one array (byte offsets ``offsets``), then ``n_fadd`` adds,
    with ``(src, dst, latency, omega)`` arcs."""
    ops = [
        Operation(index=i, opcode="load", opclass=OpClass.LOAD, mem=MemRef("x", offset=off))
        for i, off in enumerate(offsets)
    ]
    ops += [
        Operation(index=len(ops) + i, opcode="fadd", opclass=OpClass.FADD)
        for i in range(n_fadd)
    ]
    return Loop(name="tiny", ops=ops, ddg=DDG(len(ops), [Dependence(*arc) for arc in arcs]))


def _reference_schedule_and_allocate(loop, machine, options, stats, after_spill):
    """``_schedule_and_allocate`` as it was: each order searched in turn,
    stopping at the first schedule that allocates at MinII."""
    mii = min_ii(loop, machine)
    maxii = driver.max_ii(loop, machine)
    outcome = driver._RoundOutcome()
    orders = production_orders(loop, machine)
    static_bound = None
    if options.static_bounds:
        static_bound = schedulable_bound(loop, machine, cap=maxii, base=mii)
    for order_name in options.orders:
        found = driver.search_ii(
            loop, machine, orders[order_name], mii, maxii, config=options.bnb,
            simple_binary=after_spill, linear=options.linear_ii_search, stats=stats,
            static_bound=static_bound,
        )
        outcome.attempted.extend(found.attempted)
        if not found.success:
            continue
        times = adjust_pipestages(loop, found.ii, found.times)
        schedule = Schedule(
            loop=loop, machine=machine, ii=found.ii, times=times,
            producer=f"sgi/{order_name}",
        )
        allocation = driver.allocate_schedule(schedule, machine)
        winner = next(a for a in found.attempted if a.success and a.ii == found.ii)
        winner.allocated, winner.uncolored = allocation.success, len(allocation.uncolored)
        entry = (schedule, allocation, order_name)
        if allocation.success:
            if outcome.best is None or schedule.ii < outcome.best[0].ii:
                outcome.best = entry
            if schedule.ii == mii:
                return outcome
        elif outcome.best_failed is None or driver._failure_rank(entry) < driver._failure_rank(
            outcome.best_failed
        ):
            outcome.best_failed = entry
    return outcome


def _driver_outcome(result) -> tuple:
    allocation = result.allocation
    return (
        result.success, result.ii, result.schedule and list(result.schedule.times.items()),
        result.schedule and result.schedule.producer, result.order_name,
        result.spill_rounds, list(result.spilled),
        allocation and (allocation.fp_assignment, allocation.int_assignment, allocation.kmin),
    )


def _pick(entry) -> tuple:
    """A round's chosen (schedule, allocation, order), comparable."""
    if entry is None:
        return None
    schedule, allocation, order_name = entry
    return (
        list(schedule.times.items()), schedule.ii, schedule.producer, order_name,
        allocation.fp_assignment, allocation.int_assignment, allocation.kmin,
        len(allocation.uncolored),
    )


def _trail(result) -> list:
    """A run's (or a round's) II trail without wall-clock seconds."""
    return [dataclasses.replace(a, seconds=0.0) for a in result.attempted]


#: The corpus loops on which an earlier order fails MinII and a later one
#: allocates there: the loops whose trail MinII-first shortens.
MIN_II_FIRST_LOOPS = (
    "lk15_casual", "lk22_planck", "spice_model", "hydro2d_sweep1", "hydro2d_sweep2",
)


class TestMinIIFirstVsOrderByOrder:
    def test_every_corpus_result_is_unchanged(self, monkeypatch):
        """Same schedule, producer, order, spills and allocation on every
        corpus loop; the trail differs only where an order won at MinII
        after an earlier one failed there (its earlier orders' searches
        above MinII are gone).

        Both drivers run on the loops ``_corpus_results`` already
        scheduled, so the attempt memo answers their searches: this checks
        the drivers' choices, not the kernel.  A loop that spills is
        compared on its first round only, the one MinII-first can change:
        rounds after a spill search order by order in both drivers.
        """
        fast = _corpus_results()
        shortened = []
        for result in fast:
            loop = result.original
            new, old = (
                schedule_and_allocate(loop, MACHINE, PipelinerOptions(), SchedulingStats(), False)
                for schedule_and_allocate in (
                    driver._schedule_and_allocate, _reference_schedule_and_allocate
                )
            )
            # What the round hands on: its best, or (to spill from) the
            # best schedule that failed to allocate.
            assert _pick(new.best or new.best_failed) == _pick(old.best or old.best_failed), (
                loop.name
            )
            if _trail(new) != _trail(old):
                assert len(new.attempted) < len(old.attempted), loop.name
                assert {a.ii for a in new.attempted} == {result.min_ii}, loop.name
                shortened.append(loop.name)
        assert tuple(shortened) == MIN_II_FIRST_LOOPS
        monkeypatch.setattr(driver, "_schedule_and_allocate", _reference_schedule_and_allocate)
        for result in fast:
            if not result.spill_rounds:
                reference = pipeline_loop(result.original, MACHINE)
                assert _driver_outcome(result) == _driver_outcome(reference), result.loop.name

    @pytest.mark.parametrize("name", ["lk22_planck", "lk15_casual"])
    def test_earlier_orders_run_only_their_min_ii_attempt(self, name):
        result = next(r for r in _corpus_results() if r.loop.name == name)
        assert result.order_name == "HMS"
        assert [(a.ii, a.success) for a in result.attempted] == [
            (result.min_ii, False), (result.min_ii, False), (result.min_ii, True),
        ]
        assert result.ii == result.min_ii


# ----------------------------------------------------------------------
# Reference implementations: the code the bitset allocator and the
# busy-cycle simulator replaced, kept verbatim in behaviour.
# ----------------------------------------------------------------------
def _reference_adjacency(ranges: List[LiveRange], period: int) -> Dict[str, Set[str]]:
    """The pairwise interference build."""
    adjacency: Dict[str, Set[str]] = {r.name: set() for r in ranges}
    for i, a in enumerate(ranges):
        for b in ranges[i + 1 :]:
            if a.overlaps(b, period):
                adjacency[a.name].add(b.name)
                adjacency[b.name].add(a.name)
    return adjacency


def _reference_color(ranges: List[LiveRange], adjacency: Dict[str, Set[str]], k: int):
    """The list-scan simplify/select colourer: (assignment, uncolored names)."""
    by_name = {r.name: r for r in ranges}
    remaining: Set[str] = set(by_name)
    degree = {name: len(adjacency[name] & remaining) for name in remaining}
    stack: List[str] = []
    while remaining:
        trivial = [n for n in remaining if degree[n] < k]
        if trivial:
            node = min(trivial, key=lambda n: (degree[n], n))
        else:
            node = max(remaining, key=lambda n: (by_name[n].spill_ratio, degree[n], n))
        remaining.discard(node)
        stack.append(node)
        for neigh in adjacency[node]:
            if neigh in remaining:
                degree[neigh] -= 1
    assignment: Dict[str, int] = {}
    uncolored: List[str] = []
    for node in reversed(stack):
        taken = {assignment[neigh] for neigh in adjacency[node] if neigh in assignment}
        color = next((c for c in range(k) if c not in taken), None)
        if color is None:
            uncolored.append(node)
        else:
            assignment[node] = color
    return assignment, uncolored


class _ReferenceBankedMemory:
    """The set-based banks + bellows queue."""

    def __init__(self, banks: int, bellows_depth: int):
        self.banks = banks
        self.depth = bellows_depth
        self._queued: List[int] = []

    def step(self, arrivals: List[int]) -> int:
        free = set(range(self.banks))
        still_queued: List[int] = []
        for bank in self._queued:
            if bank in free:
                free.discard(bank)
            else:
                still_queued.append(bank)
        overflow: List[int] = []
        for bank in arrivals:
            if bank % self.banks in free:
                free.discard(bank % self.banks)
            else:
                overflow.append(bank % self.banks)
        stalls = 0
        for bank in overflow:
            while len(still_queued) >= self.depth:
                stalls += 1
                drained = set(range(self.banks))
                remaining: List[int] = []
                for queued_bank in still_queued:
                    if queued_bank in drained:
                        drained.discard(queued_bank)
                    else:
                        remaining.append(queued_bank)
                still_queued = remaining
            still_queued.append(bank)
        self._queued = still_queued
        return stalls


def _reference_simulate_pipelined(schedule, layout, machine, trips=None, overhead=None):
    """The walk over every cycle from 0 to the last issue, banks from the layout."""
    loop = schedule.loop
    ii = schedule.ii
    if trips is None:
        trips = loop.trip_count
    stalls = 0
    if machine.has_banked_memory and loop.memory_ops():
        memory = _ReferenceBankedMemory(machine.memory_banks, machine.bellows_depth)
        events: Dict[int, List[int]] = {}
        for op in loop.memory_ops():
            t0 = schedule.time(op.index)
            for n in range(trips):
                events.setdefault(t0 + n * ii, []).append(layout.bank(op.index, n))
        for cycle in range(0, max(events) + 1):
            stalls += memory.step(events.get(cycle, []))
    extra = overhead.total if overhead is not None else 0
    return SimReport(
        cycles=schedule.span + (trips - 1) * ii + stalls + extra,
        stall_cycles=stalls,
        memory_refs=len(loop.memory_ops()) * trips,
        trips=trips,
        overhead_cycles=extra,
    )


def _assert_allocation_matches_reference(ranges: List[LiveRange], period: int, k: int):
    graph = InterferenceGraph.build(ranges, period)
    adjacency = _reference_adjacency(ranges, period)
    assert graph.adjacency == adjacency
    for r in ranges:
        assert graph.degree(r.name) == len(adjacency[r.name])
    result = color_graph(graph, k)
    assignment, uncolored = _reference_color(ranges, adjacency, k)
    assert list(result.assignment.items()) == list(assignment.items())
    assert [r.name for r in result.uncolored] == uncolored


# A random set of cyclic live ranges on a kernel of ``period`` cycles:
# starts collide often, lengths run from 0 (an empty arc) to one cycle
# past the full period (wrap-around arcs and length == period included).
@st.composite
def live_ranges_strategy(draw):
    period = draw(st.integers(1, 16))
    specs = draw(
        st.lists(
            st.tuples(
                st.integers(0, period - 1),
                st.integers(0, period + 1),
                st.integers(1, 4),
                st.integers(1, 24),
            ),
            max_size=24,
        )
    )
    ranges = [
        LiveRange(
            name=f"v{i}@0",
            value=f"v{i}",
            reg_class=RegClass.FP,
            start=start,
            length=length,
            refs=refs,
            span=span,
            is_invariant=length >= period,
        )
        for i, (start, length, refs, span) in enumerate(specs)
    ]
    return period, draw(st.permutations(ranges))


class TestBitsetAllocatorVsPairwise:
    @given(live_ranges_strategy(), st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_adjacency_assignment_and_uncolored_order_agree(self, drawn, k):
        period, ranges = drawn
        _assert_allocation_matches_reference(ranges, period, k)

    def test_wrap_around_full_period_and_shared_starts_with_one_colour(self):
        ranges = [
            LiveRange("w@0", "w", RegClass.FP, start=6, length=4, refs=2, span=4),
            LiveRange("x@0", "x", RegClass.FP, start=1, length=1, refs=1, span=1),
            LiveRange("y@0", "y", RegClass.FP, start=1, length=3, refs=3, span=3),
            LiveRange("z@in", "z", RegClass.FP, start=0, length=8, refs=1, span=8,
                      is_invariant=True),
        ]
        _assert_allocation_matches_reference(ranges, 8, 1)
        graph = InterferenceGraph.build(ranges, 8)
        assert graph.adjacency["w@0"] == {"x@0", "y@0", "z@in"}  # 6..9 wraps onto 0 and 1

    def test_duplicate_names_raise_instead_of_merging(self):
        a = LiveRange("v1@0", "v1", RegClass.FP, start=0, length=2, refs=2, span=2)
        b = LiveRange("v1@0", "v1", RegClass.FP, start=4, length=2, refs=2, span=2)
        with pytest.raises(ValueError, match="v1@0"):
            InterferenceGraph.build([a, b], 8)


#: Corpus loops with indirect streams, spill rounds, wrap-around ranges and
#: long trip counts, cheap enough to schedule in a tier-1 test.
SAMPLE_LOOPS = (
    "lk01_hydro", "lk13_pic2d", "lk14_pic1d", "rb_reg_farm",
    "alvinn_sdot", "spice_lu", "swm_calc1", "wave5_push",
)


class TestCorpusSchedules:
    def test_allocation_and_simulation_match_reference(self):
        loops = [loop for loop in _corpus() if loop.name in SAMPLE_LOOPS]
        assert len(loops) == len(SAMPLE_LOOPS)
        for loop in loops:
            result = pipeline_loop(loop, MACHINE)
            schedule = result.schedule
            renamed = rename_kernel(schedule)
            for reg_class, k in ((RegClass.FP, MACHINE.fp_regs), (RegClass.INT, MACHINE.int_regs)):
                ranges = [r for r in renamed.ranges if r.reg_class is reg_class]
                for colours in (k, 4):  # 4 forces optimistic pushes and spills
                    _assert_allocation_matches_reference(ranges, renamed.period, colours)
            overhead = pipeline_overhead(schedule, result.allocation, MACHINE)
            for trips in (1, 7, schedule.loop.trip_count):
                layout = DataLayout(schedule.loop, trip_count=trips, seed=trips)
                assert simulate_pipelined(
                    schedule, layout, MACHINE, trips=trips, overhead=overhead
                ) == _reference_simulate_pipelined(
                    schedule, layout, MACHINE, trips=trips, overhead=overhead
                ), (loop.name, trips)


# A random memory schedule: 1-6 loads/stores on three bases, direct
# (random offset, stride and width) or indirect, issued at random cycles.
mem_ref_strategy = st.tuples(
    st.booleans(),
    st.sampled_from("abc"),
    st.one_of(st.none(), st.integers(-40, 40).map(lambda x: 4 * x)),
    st.integers(-6, 6).map(lambda x: 4 * x),
    st.sampled_from((4, 8)),
    st.integers(0, 24),
)


class TestBusyCycleSimVsEveryCycle:
    # Trips run to a few hundred so an all-direct draw spans the three or
    # more bank periods the fast-forward needs; a draw that keeps its
    # indirect references exercises the full walk instead.
    @given(
        st.lists(mem_ref_strategy, min_size=1, max_size=6),
        st.booleans(),
        st.integers(1, 6),
        st.integers(1, 400),
        st.integers(0, 3),
        st.dictionaries(st.sampled_from("abc"), st.integers(0, 1)),
        st.integers(2, 4),
        st.integers(1, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_sim_report_agrees(self, refs, indirect, ii, trips, seed, parity, banks, depth):
        if not indirect:
            refs = [(s, b, 0 if o is None else o, *rest) for s, b, o, *rest in refs]
        machine = dataclasses.replace(MACHINE, memory_banks=banks, bellows_depth=depth)
        builder = LoopBuilder("memsched", machine, trip_count=trips)
        value = builder.invariant("x")
        for is_store, base, offset, stride, width, _ in refs:
            if is_store:
                builder.store(base, value, offset=offset, stride=stride, width=width)
            else:
                builder.load(base, offset=offset, stride=stride, width=width)
        for base, bit in parity.items():
            builder.set_parity(base, bit)
        loop = builder.build()
        times = {i: ref[-1] for i, ref in enumerate(refs)}
        schedule = Schedule(loop, machine, ii, times)
        layout = DataLayout(loop, trip_count=trips, seed=seed)
        assert simulate_pipelined(schedule, layout, machine) == _reference_simulate_pipelined(
            schedule, layout, machine
        )


def _reference_check_clobbers(loop, allocation, kmin, trace, report, name) -> None:
    """EMIT002 as it was: every flow arc and every write, per write."""
    names = emitcheck._register_names(allocation)
    by_key = {(inst.op, inst.iteration): inst for inst in trace}
    writes: Dict[str, List[Tuple[int, Tuple[int, int]]]] = {}
    for inst in trace:
        if inst.dest is not None:
            writes.setdefault(inst.dest, []).append((inst.cycle, (inst.op, inst.iteration)))
    for reg in writes:
        writes[reg].sort()

    flow = [
        (a.src, a.dst, a.value, a.omega)
        for a in loop.ddg.arcs
        if a.kind is DepKind.FLOW and a.value
    ]
    reported = set()
    for inst in trace:
        if inst.dest is None:
            continue
        expected = names.get(f"{emitcheck._dest_value(loop, inst.op)}@{inst.iteration % kmin}")
        for src, dst, value, omega in flow:
            if src != inst.op:
                continue
            consumer = by_key.get((dst, inst.iteration + omega))
            if consumer is None:
                continue
            if expected is not None and expected not in consumer.srcs:
                key = (inst.op, dst, inst.iteration)
                if key not in reported:
                    reported.add(key)
                    report.add(
                        "EMIT002",
                        Severity.ERROR,
                        f"op {dst} (iteration {consumer.iteration}) should read "
                        f"{value!r} from {expected} written by op {inst.op} "
                        f"(iteration {inst.iteration}) but reads {consumer.srcs}",
                        loop=name,
                        ops=(inst.op, dst),
                        where=consumer.line.strip(),
                    )
                continue
            for w_cycle, w_ident in writes.get(inst.dest, ()):
                if w_ident == (inst.op, inst.iteration):
                    continue
                clobbers = (
                    inst.cycle < w_cycle < consumer.cycle
                    or w_cycle == inst.cycle
                )
                if clobbers:
                    key = (inst.dest, w_ident)
                    if key in reported:
                        continue
                    reported.add(key)
                    report.add(
                        "EMIT002",
                        Severity.ERROR,
                        f"{inst.dest} written by op {inst.op} (iteration "
                        f"{inst.iteration}, cycle {inst.cycle}) is overwritten by "
                        f"op {w_ident[0]} (iteration {w_ident[1]}, cycle {w_cycle}) "
                        f"before op {dst} reads it at cycle {consumer.cycle}",
                        loop=name,
                        ops=(inst.op, w_ident[0], dst),
                        hint="overlapped pipestages reuse a register too early; "
                        "kmin or the colouring is wrong",
                    )


def _collapsed(allocation, colours: int):
    """The allocation with every range folded onto ``colours`` registers
    per class: overlapped lifetimes now share registers (seeded EMIT002)."""
    return dataclasses.replace(
        allocation,
        fp_assignment={r: c % colours for r, c in allocation.fp_assignment.items()},
        int_assignment={r: c % colours for r, c in allocation.int_assignment.items()},
    )


class TestClobberCheckVsScan:
    def _assert_same_report(self, monkeypatch, schedule, allocation, emitted):
        loop = schedule.loop
        args = (loop, schedule.ii, schedule.times, allocation, emitted)
        fast = emitcheck.check_emitted(*args).diagnostics
        with monkeypatch.context() as m:
            m.setattr(emitcheck, "_check_clobbers", _reference_check_clobbers)
            reference = emitcheck.check_emitted(*args).diagnostics
        assert fast == reference, loop.name
        return fast

    def test_reports_agree_on_the_corpus_and_on_seeded_clobbers(self, monkeypatch):
        seeded = set()
        for result in _corpus_results():
            loop = result.loop
            schedule, allocation = result.schedule, result.allocation
            emitted = emit_pipelined_code(schedule, allocation)
            clean = self._assert_same_report(monkeypatch, schedule, allocation, emitted)
            assert not [d for d in clean if d.rule == "EMIT002"], loop.name
            if loop.name not in SAMPLE_LOOPS:
                continue
            for colours in (1, 2, 3):
                tight = _collapsed(allocation, colours)
                tight_code = emit_pipelined_code(schedule, tight)
                # Checked against its own allocation: clobbered registers.
                # Against the real one: reads of the wrong register.
                for checked in (tight, allocation):
                    found = self._assert_same_report(
                        monkeypatch, schedule, checked, tight_code
                    )
                    seeded.update(
                        "wrong read" if "should read" in d.message else "clobber"
                        for d in found if d.rule == "EMIT002"
                    )
        assert seeded == {"wrong read", "clobber"}


# ---------------------------------------------------------------------------
# Each per-cell fact computed once: the fast-forward bank simulator, the
# decoded functional runs, the per-replica emitter and the bank-repair skip,
# each against the code it replaced.


@functools.lru_cache(maxsize=None)
def _corpus_results():
    """SGI's result for every corpus loop, scheduled once per session."""
    return tuple(pipeline_loop(loop, MACHINE) for loop in _corpus())


def _generated_schedules():
    """150 random loops in the e2e generator's shapes (a tenth of the loads
    indirect in every third loop), each given its list schedule's times at
    MinII: dense, conflict-heavy memory timing without an II search."""
    schedules = []
    for i in range(150):
        config = GeneratorConfig(
            n_compute=4 + i % 30, n_streams=1 + i % 8, n_recurrences=i % 4,
            p_indirect=0.0 if i % 3 else 0.1, trip_count=(16, 100, 512)[i % 3],
        )
        loop = random_loop(i, config, MACHINE)
        times = list_schedule(loop, MACHINE).times
        schedules.append(Schedule(loop, MACHINE, min_ii(loop, MACHINE), times))
    return schedules


def _full_walk_bank_stream(layout, op_index, trips):
    m = layout.loop.ops[op_index].mem
    if m is not None and m.is_direct:
        first = layout.bases[m.base] + m.offset
        return [(first + n * m.stride) >> 3 & 1 for n in range(trips)]
    return [layout.bank(op_index, n) for n in range(trips)]


def _full_walk_simulate_pipelined(schedule, layout, machine, trips=None, overhead=None):
    """``simulate_pipelined`` as it was: every trip's events, busy cycles stepped."""
    loop = schedule.loop
    ii = schedule.ii
    if trips is None:
        trips = loop.trip_count
    stalls = 0
    if machine.has_banked_memory and loop.memory_ops():
        memory = BankedMemory(machine.memory_banks, machine.bellows_depth)
        events: Dict[int, List[int]] = {}
        for op in loop.memory_ops():
            t0 = schedule.time(op.index)
            cycles = range(t0, t0 + trips * ii, ii)
            for cycle, bank in zip(cycles, _full_walk_bank_stream(layout, op.index, trips)):
                events.setdefault(cycle, []).append(bank)
        next_cycle = 0
        for cycle in sorted(events):
            while next_cycle < cycle and memory.queue:
                memory.step([])
                next_cycle += 1
            stalls += memory.step(events[cycle])
            next_cycle = cycle + 1
    extra = overhead.total if overhead is not None else 0
    return SimReport(
        cycles=schedule.span + (trips - 1) * ii + stalls + extra,
        stall_cycles=stalls,
        memory_refs=len(loop.memory_ops()) * trips,
        trips=trips,
        overhead_cycles=extra,
    )


def _per_iteration_simulate_sequential_body(schedule, layout, machine, trips):
    """``simulate_sequential_body`` one iteration at a time: each owns
    ``completion`` cycles, through whose idle ones the queue drains."""
    loop = schedule.loop
    issue_len = 2 + max(schedule.time(op.index) for op in loop.ops)
    carried_stall = 0
    for arc in loop.ddg.arcs:
        if arc.omega > 0:
            need = schedule.time(arc.src) + arc.latency - schedule.time(arc.dst)
            carried_stall = max(carried_stall, math.ceil(need / arc.omega))
    completion = max(issue_len, carried_stall)
    memory = BankedMemory(machine.memory_banks, machine.bellows_depth)
    stalls = 0
    for n in range(trips):
        events: Dict[int, List[int]] = {}
        for op in loop.memory_ops():
            events.setdefault(schedule.time(op.index), []).append(layout.bank(op.index, n))
        now = 0
        for cycle in sorted(events):
            while now < cycle and memory.queue:
                memory.step([])
                now += 1
            stalls += memory.step(events[cycle])
            now = cycle + 1
        while now < completion and memory.queue:
            memory.step([])
            now += 1
    return SimReport(
        cycles=trips * completion + stalls,
        stall_cycles=stalls,
        memory_refs=len(loop.memory_ops()) * trips,
        trips=trips,
    )


class TestFastForwardSimVsFullWalk:
    def test_corpus_and_generated_loops_at_every_trip_count(self):
        schedules = [r.schedule for r in _corpus_results()] + _generated_schedules()
        assert len(schedules) == 58 + 150
        stalled = 0
        for schedule in schedules:
            for trips in (None, 7, 33, 1000):
                layout = DataLayout(
                    schedule.loop, trip_count=trips or schedule.loop.trip_count, seed=1
                )
                fast = simulate_pipelined(schedule, layout, MACHINE, trips=trips)
                assert fast == _full_walk_simulate_pipelined(
                    schedule, layout, MACHINE, trips=trips
                ), (schedule.loop.name, trips)
                stalled += fast.stall_cycles > 0
        assert stalled > 100  # the queue state matters, not just empty runs

    def test_baseline_walk_matches_iteration_by_iteration(self):
        # The baseline is the same walk at II = completion.
        stalled = 0
        for loop in _corpus() + [s.loop for s in _generated_schedules()[::3]]:
            schedule = list_schedule(loop, MACHINE)
            for trips in (7, 100):
                layout = DataLayout(loop, trip_count=trips, seed=2)
                report = simulate_sequential_body(schedule, layout, MACHINE, trips=trips)
                assert report == _per_iteration_simulate_sequential_body(
                    schedule, layout, MACHINE, trips
                ), (loop.name, trips)
                stalled += report.stall_cycles > 0
        assert stalled > 20


def _reference_run_sequential(loop, layout, trips):
    """``run_sequential`` as it was: (register, iteration) history keys."""
    defs = loop.defs_of()
    omegas = _use_omegas(loop)
    invariants = {name: layout.live_in_value(name) for name in loop.live_in}
    memory: Dict[int, float] = {}
    written: Dict[int, float] = {}
    history: Dict[Tuple[str, int], float] = {}
    for n in range(trips):
        for op in loop.ops:
            vals: List[float] = []
            for pos, src in enumerate(op.srcs):
                if src not in defs:
                    vals.append(invariants[src])
                    continue
                m = n - omegas[op.index][pos]
                vals.append(invariants.get(src, 0.0) if m < 0 else history[(src, m)])
            if op.opclass.name == "LOAD":
                addr = layout.address(op.index, n)
                result = memory.get(addr, layout.initial_value(addr))
            elif op.opclass.name == "STORE":
                addr = layout.address(op.index, n)
                memory[addr] = written[addr] = vals[0]
                continue
            else:
                result = _evaluate(op.opcode, vals)
            history[(op.dest, n)] = result
    live_out = {
        name: history[(name, trips - 1)] for name in loop.live_out if (name, trips - 1) in history
    }
    return ExecutionResult(memory=written, live_out=live_out)


def _reference_run_pipelined(schedule, allocation, layout, trips):
    """``run_pipelined`` as it was: an f-string register key per operand."""
    loop = schedule.loop
    kmin = allocation.kmin
    defs = loop.defs_of()
    omegas = _use_omegas(loop)
    invariants = {name: layout.live_in_value(name) for name in loop.live_in}
    colors: Dict[str, Tuple[str, int]] = {}
    for name, color in allocation.fp_assignment.items():
        colors[name] = ("fp", color)
    for name, color in allocation.int_assignment.items():
        colors[name] = ("int", color)
    regfile: Dict[Tuple[str, int], float] = {}
    for name in loop.live_in:
        key = colors.get(f"{name}@in")
        if name not in defs and key is not None:
            regfile[key] = invariants[name]
    memory: Dict[int, float] = {}
    written: Dict[int, float] = {}
    last_def_value: Dict[str, float] = {}
    by_cycle: Dict[int, List[Tuple[int, int]]] = {}
    for op in loop.ops:
        for n in range(trips):
            by_cycle.setdefault(schedule.time(op.index) + n * schedule.ii, []).append(
                (op.index, n)
            )
    for cycle in sorted(by_cycle):
        reads = []
        for op_index, n in sorted(by_cycle[cycle]):
            op = loop.ops[op_index]
            vals: List[float] = []
            for pos, src in enumerate(op.srcs):
                if src not in defs:
                    vals.append(regfile[colors[f"{src}@in"]])
                    continue
                m = n - omegas[op_index][pos]
                vals.append(
                    invariants.get(src, 0.0) if m < 0 else regfile[colors[f"{src}@{m % kmin}"]]
                )
            if op.opclass.name == "LOAD":
                addr = layout.address(op_index, n)
                vals = [memory.get(addr, layout.initial_value(addr))]
            reads.append((op_index, n, vals))
        for op_index, n, vals in reads:
            op = loop.ops[op_index]
            if op.opclass.name == "STORE":
                addr = layout.address(op_index, n)
                memory[addr] = written[addr] = vals[0]
                continue
            result = vals[0] if op.opclass.name == "LOAD" else _evaluate(op.opcode, vals)
            regfile[colors[f"{op.dest}@{n % kmin}"]] = result
            if n == trips - 1:
                last_def_value[op.dest] = result
    live_out = {name: last_def_value[name] for name in loop.live_out if name in last_def_value}
    return ExecutionResult(memory=written, live_out=live_out)


def _same_result(a: ExecutionResult, b: ExecutionResult) -> bool:
    """Equal contents, written order included (NaNs by bit pattern)."""
    return list(a.memory) == list(b.memory) and a.matches(b)


class TestDecodedFunctionalRunsVsPerInstance:
    def test_sequential_and_pipelined_runs_agree_clean_and_clobbered(self):
        clobbered = 0
        for result in _corpus_results():
            schedule, allocation = result.schedule, result.allocation
            for trips, seed in ((12, 0), (3 * schedule.n_stages + 1, 5)):
                # The new runs share one layout, as the oracle's check does.
                shared = DataLayout(result.loop, trip_count=trips, seed=seed)
                alone = DataLayout(result.loop, trip_count=trips, seed=seed)
                seq = run_sequential(result.loop, shared, trips)
                assert _same_result(seq, _reference_run_sequential(result.loop, alone, trips))
                allocations = [allocation]
                if result.loop.name in SAMPLE_LOOPS:
                    allocations += [_collapsed(allocation, c) for c in (1, 2)]
                for alloc in allocations:
                    pipe = run_pipelined(schedule, alloc, shared, trips)
                    reference = _reference_run_pipelined(schedule, alloc, alone, trips)
                    assert _same_result(pipe, reference), (result.loop.name, trips)
                    clobbered += not pipe.matches(seq)
        assert clobbered > 0  # the collapsed allocations really do clobber

    def test_missing_register_raises_in_both(self):
        result = _corpus_results()[0]
        allocation = result.allocation
        name = next(iter(allocation.fp_assignment))
        broken = dataclasses.replace(
            allocation,
            fp_assignment={k: c for k, c in allocation.fp_assignment.items() if k != name},
        )
        layout = DataLayout(result.loop, trip_count=12)
        for run in (run_pipelined, _reference_run_pipelined):
            with pytest.raises(KeyError):
                run(result.schedule, broken, layout, 12)


def _reference_format_instance(loop, colors, defs, omegas, op_index, iteration, kmin):
    def operand(value, it):
        key = f"{value}@in" if value not in defs else f"{value}@{it % kmin}"
        cls, color = colors[key]
        return f"{'$f' if cls == 'fp' else '$r'}{color}"

    op = loop.ops[op_index]
    srcs = [operand(src, iteration - omegas[op_index][pos]) for pos, src in enumerate(op.srcs)]
    dest = operand(op.dest, iteration) + " <- " if op.dests else ""
    mem = ""
    if op.mem is not None:
        off = "?" if op.mem.offset is None else str(op.mem.offset)
        mem = f" [{op.mem.base}+{off}+i*{op.mem.stride}]"
    body = f"{op.opcode} {dest}{', '.join(srcs)}".rstrip(" ,")
    return f"    {body}{mem}  ; op{op_index} iter{{i{iteration:+d}}}"


def _reference_emit_pipelined_code(schedule, allocation):
    """``emit_pipelined_code`` as it was: every instance formatted afresh."""
    loop = schedule.loop
    ii = schedule.ii
    kmin = allocation.kmin
    stages = schedule.n_stages
    defs = loop.defs_of()
    omegas = _use_omegas(loop)
    colors: Dict[str, Tuple[str, int]] = {}
    for name, color in allocation.fp_assignment.items():
        colors[name] = ("fp", color)
    for name, color in allocation.int_assignment.items():
        colors[name] = ("int", color)

    def bundle(instances, cycle_label):
        return [f"  {cycle_label}:"] + [
            _reference_format_instance(loop, colors, defs, omegas, op_index, n, kmin)
            for op_index, n in sorted(instances)
        ]

    steady_start = (stages - 1) * ii
    events: Dict[int, List[Tuple[int, int]]] = {}
    for op in loop.ops:
        for n in range(stages + kmin):
            events.setdefault(schedule.time(op.index) + n * ii, []).append((op.index, n))
    prologue: List[str] = []
    for cycle in range(steady_start):
        if events.get(cycle):
            prologue.extend(bundle(events[cycle], f"fill+{cycle}"))
    kernel: List[str] = []
    for u in range(kmin):
        for slot in range(ii):
            instances = events.get(steady_start + u * ii + slot, [])
            if instances:
                kernel.extend(bundle(instances, f"kernel[{u}]+{slot}"))
    epilogue: List[str] = []
    drain_events: Dict[int, List[Tuple[int, int]]] = {}
    for op in loop.ops:
        for n in range(stages - 1):
            t = schedule.time(op.index) + n * ii
            if t >= steady_start:
                drain_events.setdefault(t - steady_start, []).append((op.index, n))
    for cycle in sorted(drain_events):
        epilogue.extend(bundle(drain_events[cycle], f"drain+{cycle}"))
    return PipelinedCode(prologue, kernel, epilogue, kmin, stages)


class TestPerReplicaEmitterVsPerInstance:
    def test_listing_is_byte_identical(self):
        for result in _corpus_results():
            for alloc in (result.allocation, _collapsed(result.allocation, 2)):
                fast = emit_pipelined_code(result.schedule, alloc)
                reference = _reference_emit_pipelined_code(result.schedule, alloc)
                assert fast == reference, result.loop.name
                assert fast.listing() == reference.listing()


def _reference_repair_bank_grouping(loop, machine, ii, options, stats, base):
    """``_repair_bank_grouping`` as it was: every form polished and costed."""
    orders = production_orders(loop, machine)
    candidates = []

    def reschedule(order_name, with_pairer):
        order = orders[order_name]
        pairer = (
            BankPairer(loop, ii, order) if with_pairer else None
        )
        prepare_attempt(loop, machine, ii, order)
        result = modulo_schedule_bnb(loop, machine, ii, order, options.bnb, pairer)
        stats.attempts += 1
        stats.placements += result.placements
        stats.backtracks += result.backtracks
        if result.success:
            times = adjust_pipestages(loop, ii, result.times)
            suffix = "+bank" if with_pairer else ""
            schedule = Schedule(
                loop=loop, machine=machine, ii=ii, times=times,
                producer=f"sgi/{order_name}{suffix}",
            )
            candidates.append((schedule, order_name))

    base_schedule, base_allocation, base_order = base
    for order_name in options.orders:
        reschedule(order_name, with_pairer=True)
    candidates.append((base_schedule, base_order))
    for order_name in options.orders:
        if order_name != base_order:
            reschedule(order_name, with_pairer=False)
    best = None
    for candidate, order_name in candidates:
        pairer = BankPairer(loop, ii, orders[order_name])
        forms = [candidate]
        polished = polish_bank_schedule(candidate, machine, pairer)
        if polished is not None:
            forms.append(polished)
        for form in forms:
            allocation = (
                base_allocation if form is base_schedule else driver.allocate_schedule(form, machine)
            )
            if not allocation.success:
                continue
            risk = driver._residual_risk(form, pairer)
            overhead = pipeline_overhead(form, allocation, machine).total
            rank = (overhead + 0.5 * risk * loop.trip_count, risk)
            if best is None or rank < best[0]:
                best = (rank, form, allocation, order_name)
    return None if best is None else best[1:]


def _outcome(result):
    allocation = result.allocation
    return (
        result.schedule.times, result.ii, result.order_name, result.schedule.producer,
        allocation.fp_assignment, allocation.int_assignment, allocation.kmin,
        result.stats.attempts, result.stats.placements, result.stats.backtracks,
    )


class TestBankRepairSkipVsEveryForm:
    def test_every_corpus_result_is_unchanged(self, monkeypatch):
        calls = {"fast": 0, "reference": 0}
        allocate = driver.allocate_schedule
        fast_repair = driver._repair_bank_grouping

        def both(loop, machine, ii, options, stats, base):
            # Each repair picks on the same inputs, its allocations counted.
            lane = "fast"

            def counting(schedule, machine):
                calls[lane] += 1
                return allocate(schedule, machine)

            monkeypatch.setattr(driver, "allocate_schedule", counting)
            fast = fast_repair(loop, machine, ii, options, SchedulingStats(), base)
            lane = "reference"
            reference = _reference_repair_bank_grouping(loop, machine, ii, options, stats, base)
            monkeypatch.setattr(driver, "allocate_schedule", allocate)
            picks = [
                None if pick is None else (pick[0].times, pick[0].producer, pick[1], pick[2])
                for pick in (fast, reference)
            ]
            assert picks[0] == picks[1], loop.name
            return reference

        monkeypatch.setattr(driver, "_repair_bank_grouping", both)
        reference = [pipeline_loop(loop, MACHINE) for loop in _corpus()]
        for new, old in zip(_corpus_results(), reference):
            assert _outcome(new) == _outcome(old), new.loop.name
        assert calls["fast"] < calls["reference"]  # repeated schedules were skipped


# ---------------------------------------------------------------------------
# Each bound at the price of one proof: RecMII relaxed over cycle arcs only,
# the runner's bound without the certificates it never read, and SCHED004
# decided at the schedule's own II, each against the code it replaced.


def _reference_search_rec_mii(loop):
    """``minii._search_rec_mii`` as it was: every arc relaxed ``n`` times."""

    def positive(ii):
        n = loop.n_ops
        dist = [0] * n
        arcs = [(a.src, a.dst, a.latency - ii * a.omega) for a in loop.ddg.arcs]
        for _ in range(n):
            changed = False
            for src, dst, w in arcs:
                if dist[src] + w > dist[dst]:
                    dist[dst] = dist[src] + w
                    changed = True
            if not changed:
                return False
        return True

    if not loop.ddg.arcs:
        return 1
    hi = max(1, sum(max(a.latency, 0) for a in loop.ddg.arcs))
    if not positive(1):
        return 1
    lo = 1
    if positive(hi):
        raise ValueError(
            f"loop {loop.name!r} has a dependence cycle with no carried arc; cannot pipeline"
        )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _reference_independent_rec_mii(loop):
    """``schedcheck._independent_rec_mii`` as it was."""
    arcs = [(a.src, a.dst, a.latency, a.omega) for a in loop.ddg.arcs]
    if not arcs:
        return 1

    def has_positive_cycle(ii):
        n = loop.n_ops
        dist = [0] * n
        weighted = [(s, d, lat - ii * om) for s, d, lat, om in arcs]
        for _ in range(n):
            changed = False
            for s, d, w in weighted:
                if 0 <= s < n and 0 <= d < n and dist[s] + w > dist[d]:
                    dist[d] = dist[s] + w
                    changed = True
            if not changed:
                return False
        return True

    if not has_positive_cycle(1):
        return 1
    hi = max(1, sum(max(lat, 0) for _, _, lat, _ in arcs))
    if has_positive_cycle(hi):
        return hi + 1
    lo = 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if has_positive_cycle(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _reference_audit_min_ii(loop, machine, ii, report):
    """``schedcheck._audit_min_ii`` as it was: RecMII searched at every audit."""
    res = schedcheck._independent_res_mii(loop, machine)
    rec = _reference_independent_rec_mii(loop)
    bound = max(res, rec)
    if ii < bound:
        report.add(
            "SCHED004",
            Severity.ERROR,
            f"II={ii} below the independent MinII bound {bound} "
            f"(ResMII={res}, RecMII={rec})",
            loop=loop.name,
            hint="either the schedule, the bound computation, or this checker "
            "is wrong; all three claim to model the same machine",
        )


def _raised_or_returned(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@functools.lru_cache(maxsize=None)
def _stratified_loops(seed: int, n: int = 150):
    """The e2e ``generated-cp`` workload's loops for ``seed``: its stratified
    shapes, its seeded draws, bodies with two or more divides redrawn."""
    rng = random.Random(f"generated-cp/{seed}")

    def column(values):
        out = [values[i % len(values)] for i in range(n)]
        rng.shuffle(out)
        return out

    compute = column([4 + round(i * 36 / max(1, n - 1)) for i in range(n)])
    streams = column(list(range(1, 9)))
    recurrences = column([0, 1, 2, 3])
    fdiv = column([0.0, 0.03])
    trips = column([16, 100, 512])
    loops = []
    for i in range(n):
        config = GeneratorConfig(n_compute=compute[i], n_streams=streams[i],
                                 n_recurrences=recurrences[i], p_fdiv=fdiv[i],
                                 trip_count=trips[i])
        while True:
            spec = random_spec(rng.randrange(2**31), config, name=f"gen{seed}_{i}")
            if sum(op.kind == "fdiv" for op in spec.ops) <= 1:
                loops.append(spec.build(MACHINE))
                break
    return tuple(loops)


def _bound_loops():
    """All 58 corpus loops and 150 generated loops for each of seeds 0-2."""
    return [*_corpus(), *_stratified_loops(0), *_stratified_loops(1), *_stratified_loops(2)]


# A drawn dependence graph over 1-8 ops: self-arcs, several SCCs, negative
# latencies and zero-omega cycles (positive ones included) all occur.
@st.composite
def drawn_loops(draw):
    n = draw(st.integers(1, 8))
    arcs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(-2, 9), st.integers(0, 3)),
        max_size=18,
    ))
    ops = [Operation(index=i, opcode="fadd", opclass=OpClass.FADD) for i in range(n)]
    deps = [
        Dependence(src, dst, lat, omega)
        for src, dst, lat, omega in arcs
        if not (src == dst and omega == 0 and lat > 0)  # the DDG refuses these
    ]
    return Loop(name="drawn", ops=ops, ddg=DDG(n, deps))


def _audit_reports(monkeypatch, loop, ii, times):
    """Full ``check_schedule`` diagnostics with the audit and with its reference."""
    reports = []
    for audit in (schedcheck._audit_min_ii, _reference_audit_min_ii):
        monkeypatch.setattr(schedcheck, "_audit_min_ii", audit)
        reports.append([d.formatted() for d in check_schedule(loop, MACHINE, ii, times).diagnostics])
    return reports


class TestCycleArcRecMiiVsFullGraph:
    def test_corpus_and_generated_loops(self):
        for loop in _bound_loops():
            assert _search_rec_mii(loop) == _reference_search_rec_mii(loop), loop.name

    @settings(max_examples=300, deadline=None)
    @given(drawn_loops())
    def test_drawn_graphs(self, loop):
        assert _raised_or_returned(_search_rec_mii, loop) == _raised_or_returned(
            _reference_search_rec_mii, loop
        )

    def test_zero_omega_positive_cycle_raises_the_same_error(self):
        ops = [Operation(index=i, opcode="fadd", opclass=OpClass.FADD) for i in range(3)]
        deps = [Dependence(0, 1, 2), Dependence(1, 0, 1), Dependence(2, 2, 4, 1)]
        loop = Loop(name="uncarried", ops=ops, ddg=DDG(3, deps))
        new = _raised_or_returned(_search_rec_mii, loop)
        assert new == _raised_or_returned(_reference_search_rec_mii, loop)
        assert new[0] == "ValueError"

    def test_res_mii_memo_is_per_machine(self, machine, tiny_machine):
        loop = _corpus()[0]
        assert res_mii(loop, machine) == schedcheck._independent_res_mii(loop, machine)
        assert res_mii(loop, tiny_machine) == schedcheck._independent_res_mii(loop, tiny_machine)
        assert res_mii(loop, machine) == schedcheck._independent_res_mii(loop, machine)


class TestRunnerBoundVsCertificates:
    def test_schedulable_bound_is_the_refined_bound(self):
        for loop in _bound_loops():
            assert schedulable_bound(loop, MACHINE, base=min_ii(loop, MACHINE)) == (
                compute_bounds(loop, MACHINE).refined_bound
            ), loop.name

    def test_analyze_cell_builds_no_certificate_it_does_not_read(self, monkeypatch):
        key = "recbound:rb_diamond3"  # lifted: MinII 12, bound 13
        reference = compute_bounds(resolve_loop(key), MACHINE)

        def unread(*args, **kwargs):
            raise AssertionError("a certificate the cell never reads was built")

        for name in ("prove_alloc_infeasible", "pairing_certificate",
                     "resource_certificate", "recurrence_certificate"):
            monkeypatch.setattr(bounds, name, unread)
        cell = Cell.make(key, "sgi", {}, simulate=False, oracle=True, analyze=True)
        result = execute_cell(cell.to_dict(), in_worker=False)
        assert result["error"] is None
        assert result["refined_bound"] == reference.refined_bound
        assert result["min_ii"] == reference.min_ii


class TestOneIiAuditVsBinarySearch:
    def test_seeded_below_minii_schedules_report_identically(self, monkeypatch):
        below = 0
        for loop in _bound_loops():
            times = list_schedule(loop, MACHINE).times
            mii = min_ii(loop, MACHINE)
            for ii in sorted({1, mii - 2, mii - 1, mii, mii + 1} - {-1, 0}):
                new, old = _audit_reports(monkeypatch, loop, ii, times)
                assert new == old, (loop.name, ii)
                below += any("SCHED004" in line for line in new)
        assert below > 300  # the seeded schedules do reach the audit

    @settings(max_examples=300, deadline=None)
    @given(drawn_loops(), st.integers(1, 12))
    def test_drawn_graphs(self, loop, ii):
        times = {op: 0 for op in range(loop.n_ops)}
        with pytest.MonkeyPatch.context() as monkeypatch:
            new, old = _audit_reports(monkeypatch, loop, ii, times)
        assert new == old


# ---------------------------------------------------------------------------
# The emitted-code check decides a complete, regular listing per (op,
# replica) head; the instance-by-instance replay decides everything else.


class TestRegularReplayProofVsInstanceReplay:
    def test_reports_agree_with_the_proof_skipped(self, monkeypatch):
        proved = refuted = 0
        for result in _corpus_results():
            schedule = result.schedule
            allocations = [result.allocation] + [
                _collapsed(result.allocation, colours) for colours in (1, 2, 3)
            ]
            for allocation in allocations:
                # Each listing checked against its own allocation (clobbers)
                # and against the real one (wrong reads).
                emitted = emit_pipelined_code(schedule, allocation)
                for checked in {id(a): a for a in (allocation, result.allocation)}.values():
                    args = (schedule.loop, schedule.ii, schedule.times, checked, emitted)
                    with_proof = emitcheck.check_emitted(*args).diagnostics
                    with monkeypatch.context() as m:
                        m.setattr(emitcheck, "_regular_replay_is_clean", lambda *a: False)
                        replayed = emitcheck.check_emitted(*args).diagnostics
                    assert with_proof == replayed, schedule.loop.name
                    if any(d.rule in ("EMIT001", "EMIT002") for d in replayed):
                        refuted += 1
                    else:
                        proved += 1
        # Both sides of the proof are exercised.
        assert proved >= 58 and refuted > 50
