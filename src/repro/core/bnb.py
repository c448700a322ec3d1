"""Branch-and-bound enumeration of modulo schedules (Sections 2.4-2.5).

This is the heart of the SGI heuristic pipeliner: given a candidate II and
a priority list, operations are placed one at a time into a modulo
reservation table.  Each operation gets a *legal range* of at most II
candidate cycles; a placement failure triggers a backtrack to a *catch
point* — a scheduled operation that advances to the next cycle of its
legal range after everything after it on the list is unscheduled.

The enumeration is exponential in its unpruned form (Figure 1 of the
paper); the production pruning rules restrict which operations may catch:

1. only the first listed element of a strongly connected component;
2. an operation whose resources differ from the failing operation's, and
   whose unscheduling makes the failing operation schedulable;
3. failing that, an operation with identical resources whose unscheduling
   lets the failing operation schedule *in a different slot*.

Legal ranges deliberately ignore dependences that cross strongly connected
components (the priority list need not be topological); the resulting
violations are repaired by the pipestage-adjustment postpass
(:mod:`repro.core.pipestage`), which moves whole components by multiples
of II.

The scheduler also implements the memory-bank pairing of Section 2.9: when
a pairable memory reference is placed and more known even-odd pairs are
needed, the first schedulable element of its partner list is immediately
placed in the same cycle, out of priority order.

Hot-path engineering (the raw-speed campaign; outcome-identical to the
straightforward form by construction):

* every per-operation lookup — reservation table, lowered resource
  entries, SCC membership, memory-ness, intra-SCC distances, direct-arc
  bounds at this II — is precomputed once per attempt into dense arrays;
* candidate-cycle scans and the backtracker's open-slot test use the
  packed reservation table's :meth:`blocked_mask` — one bitmask covering a
  whole II of slots — instead of probing cycle by cycle.  The
  ``placements`` accounting still counts exactly the probes the per-cycle
  loop would have made, so search budgets cut off at identical states;
* legal ranges are cached and invalidated through a precomputed inverse
  dependency map on place/unplace, instead of being recomputed from all
  placed predecessors and successors on every query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription
from ..machine.resources import ModuloReservationTable
from ..obs import get_recorder
from .distances import SccDistanceTables
from .membank import BankPairer


@dataclass
class BnBConfig:
    """Search-effort knobs.

    ``max_backtracks`` is the backtracking limit the conclusions section
    mentions: the one loop where the ILP beat the heuristics was equalised
    by "a very modest increase in the backtracking limits".
    """

    max_backtracks: int = 400
    max_placements: int = 250_000
    use_rule3: bool = True
    prune: bool = True


@dataclass
class BnBResult:
    times: Optional[Dict[int, int]]
    placements: int = 0
    backtracks: int = 0
    # Catch-point search accounting (§2.5): how often each pruning rule
    # rejected or selected a candidate catch, keyed by reason (``rule1``,
    # ``exhausted``, ``no_slot``, ``same_resource``, ``catch_rule2``,
    # ``catch_rule3``).
    prunes: Dict[str, int] = field(default_factory=dict)
    # Deepest priority-list position ever reached (best-so-far depth).
    max_depth: int = 0
    # Wall-clock seconds, filled in by callers that time the attempt.
    seconds: float = 0.0

    @property
    def success(self) -> bool:
        return self.times is not None


def _copy_result(result: BnBResult) -> BnBResult:
    """A defensive copy for the attempt memo (callers may consume times)."""
    return BnBResult(
        None if result.times is None else dict(result.times),
        result.placements,
        result.backtracks,
        dict(result.prunes),
        result.max_depth,
    )


class _State:
    """Per-priority-position search state.

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


def modulo_schedule_bnb(
    loop: Loop,
    machine: MachineDescription,
    ii: int,
    priority: Sequence[int],
    config: Optional[BnBConfig] = None,
    pairer: Optional[BankPairer] = None,
) -> BnBResult:
    """Attempt to find a modulo schedule at ``ii`` following ``priority``.

    On success the returned times satisfy all resource constraints and all
    intra-SCC dependence constraints; cross-SCC dependences may still be
    violated and must be repaired by pipestage adjustment.

    The search is deterministic in ``(machine, ii, priority, config)`` plus
    the pairer's configuration (a :class:`BankPairer` is itself a pure
    function of ``(loop, ii, priority)``), so completed attempts
    are memoized per loop: the driver re-runs the winning configuration
    during bank-grouping repair, and the re-run returns the identical
    result — times *and* search-effort counters — without searching again.
    Under a live recorder a memo hit replays the stored attempt's
    ``bnb.*`` counters and its ``bnb.attempt`` event (flagged ``memo``,
    with no span: nothing was searched), so traced and untraced runs do
    the same work and count the same effort.
    """
    config = config or BnBConfig()
    rec = get_recorder()
    memo: Optional[Dict] = None
    memo_key = None
    if pairer is None or type(pairer) is BankPairer:
        memo_key = (
            id(machine), ii, tuple(priority),
            config.max_backtracks, config.max_placements,
            config.use_rule3, config.prune, pairer is not None,
        )
        memo = getattr(loop.ddg, "_bnb_attempt_memo", None)
        if memo is None:
            memo = loop.ddg._bnb_attempt_memo = {}
        hit = memo.get(memo_key)
        if hit is not None:
            if rec.enabled:
                _record_attempt(rec, loop, ii, hit, memo=True)
            return _copy_result(hit)
    attempt = _Attempt(loop, machine, ii, priority, config, pairer)
    if rec.enabled:
        with rec.span("bnb", loop=loop.name, ii=ii, n_ops=loop.n_ops):
            result = attempt.run()
        _record_attempt(rec, loop, ii, result)
    else:
        result = attempt.run()
    if memo is not None:
        memo[memo_key] = _copy_result(result)
    return result


def _record_attempt(rec, loop: Loop, ii: int, result: BnBResult, memo: bool = False) -> None:
    """Fold one attempt's effort into the live recorder.

    Inner-loop effort is counted with plain integers; it is folded into
    the recorder once per attempt so the hot path stays unobserved.
    """
    rec.counter("bnb.attempts")
    rec.counter("bnb.placements", result.placements)
    rec.counter("bnb.backtracks", result.backtracks)
    for reason, count in result.prunes.items():
        rec.counter(f"bnb.prune.{reason}", count)
    rec.event(
        "bnb.attempt",
        loop=loop.name,
        ii=ii,
        success=result.success,
        placements=result.placements,
        backtracks=result.backtracks,
        max_depth=result.max_depth,
        prunes=dict(result.prunes),
        **({"memo": True} if memo else {}),
    )


class _IIPlan:
    """Order-independent per-``(machine, II)`` precompute.

    Everything here is read-only during the search and identical for every
    priority order, so all four production orders (and their re-runs in
    the driver's repair passes) share one build.  Cached on ``loop.ddg``
    next to the distance memo (same lifetime: the loop).
    """

    __slots__ = (
        "dists", "tables", "tkey", "is_mem", "in_scc",
        "scc_in", "scc_out", "pred_arcs", "succ_arcs", "range_inv",
    )

    def __init__(self, loop: Loop, machine: MachineDescription, ii: int):
        self.dists = SccDistanceTables(loop, ii)
        ddg = loop.ddg
        n = loop.n_ops
        # Interned table identity so the rule-2 "identical resources" test
        # is an int compare.  Lowered forms stay per-attempt: the lowering
        # is MRT-implementation-specific (and cached on the tables anyway).
        self.tables = [machine.table(op.opclass) for op in loop.ops]
        tkeys: Dict[Tuple, int] = {}
        self.tkey = [tkeys.setdefault(t.uses, len(tkeys)) for t in self.tables]
        self.is_mem = [op.is_memory for op in loop.ops]
        self.in_scc = [ddg.in_nontrivial_scc(op) for op in range(n)]
        # Intra-SCC distance adjacency: (member, dist) pairs in member
        # order, split by direction, skipping pairs with no path.
        dist = self.dists.dist
        self.scc_in: List[Tuple[Tuple[int, int], ...]] = [()] * n
        self.scc_out: List[Tuple[Tuple[int, int], ...]] = [()] * n
        # Direct-arc bounds at this II, excluding self-arcs.
        self.pred_arcs: List[Tuple[Tuple[int, int], ...]] = [()] * n
        self.succ_arcs: List[Tuple[Tuple[int, int], ...]] = [()] * n
        # Inverse dependency map for the legal-range cache: placing or
        # unplacing op d changes the range of every op in range_inv[d].
        self.range_inv: List[List[int]] = [[] for _ in range(n)]
        for op in range(n):
            deps: Dict[int, None] = {}
            if self.in_scc[op]:
                members_in = []
                members_out = []
                for member in ddg.scc_members(op):
                    if member == op:
                        continue
                    deps[member] = None
                    d_in = dist(member, op)
                    if d_in is not None:
                        members_in.append((member, d_in))
                    d_out = dist(op, member)
                    if d_out is not None:
                        members_out.append((member, d_out))
                self.scc_in[op] = tuple(members_in)
                self.scc_out[op] = tuple(members_out)
            preds = []
            for arc in ddg.preds(op):
                if arc.src != op:
                    preds.append((arc.src, arc.latency - ii * arc.omega))
                    deps[arc.src] = None
            succs = []
            for arc in ddg.succs(op):
                if arc.dst != op:
                    succs.append((arc.dst, arc.latency - ii * arc.omega))
                    deps[arc.dst] = None
            self.pred_arcs[op] = tuple(preds)
            self.succ_arcs[op] = tuple(succs)
            for d in deps:
                self.range_inv[d].append(op)


class _Plan:
    """The thin order-dependent layer over an :class:`_IIPlan`."""

    __slots__ = ("base", "order", "pos_of", "rule1_pos")

    def __init__(self, loop: Loop, base: _IIPlan, priority: Sequence[int]):
        if sorted(priority) != list(range(loop.n_ops)):
            raise ValueError("priority list must be a permutation of the operations")
        self.base = base
        self.order = list(priority)
        self.pos_of = {op: pos for pos, op in enumerate(self.order)}
        ddg = loop.ddg
        # Rule 1: the first listed element of each SCC.
        scc_first: Dict[int, int] = {}
        for pos, op in enumerate(self.order):
            scc = ddg.scc_id(op)
            if scc not in scc_first:
                scc_first[scc] = pos
        self.rule1_pos = [
            scc_first[ddg.scc_id(op)] for op in self.order
        ]


def prepare_attempt(
    loop: Loop, machine: MachineDescription, ii: int, priority: Sequence[int]
) -> None:
    """Warm every per-``(loop, machine, II, order)`` structure an attempt needs.

    Callers that time the search (the II search, the driver's bank-repair
    reschedules) invoke this *outside* their timed window, the same way
    :meth:`SccDistanceTables.prime` hoists the longest-path analysis: plan
    construction and reservation-table lowering are loop/machine analysis,
    not search, and they are cached across every attempt on the loop.
    """
    plan = _plan_for(loop, machine, ii, priority)
    mrt = ModuloReservationTable(ii, machine.availability)
    for t in plan.base.tables:
        mrt.lower(t)


def _plan_for(
    loop: Loop, machine: MachineDescription, ii: int, priority: Sequence[int]
) -> _Plan:
    ddg = loop.ddg
    cache = getattr(ddg, "_bnb_plans", None)
    if cache is None:
        cache = ddg._bnb_plans = {}
    base_key = (id(machine), ii)
    base = cache.get(base_key)
    if base is None:
        base = cache[base_key] = _IIPlan(loop, machine, ii)
    key = (id(machine), ii, tuple(priority))
    plan = cache.get(key)
    if plan is None:
        plan = cache[key] = _Plan(loop, base, priority)
    return plan


class _Attempt:
    def __init__(
        self,
        loop: Loop,
        machine: MachineDescription,
        ii: int,
        priority: Sequence[int],
        config: BnBConfig,
        pairer: Optional[BankPairer],
    ):
        plan = _plan_for(loop, machine, ii, priority)
        base = plan.base
        self.loop = loop
        self.machine = machine
        self.ii = ii
        self.order = plan.order
        self.pos_of = plan.pos_of
        self.config = config
        self.pairer = pairer
        self.dists = base.dists
        self.mrt = ModuloReservationTable(ii, machine.availability)
        self.times: Dict[int, int] = {}
        self.states: Dict[int, _State] = {}
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
                state = _State(op=op, lo=lo, hi=hi, next_cycle=start, direction=direction)
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

    def _first_fit(self, op: int, state: _State) -> Tuple[Optional[int], int]:
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

    def _try_place(self, pos: int, state: _State) -> bool:
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

    def _scan_with_pairing(self, state: _State) -> Optional[int]:
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
            self.states[ppos] = _State(
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
                self.states[pos] = _State(
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
