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

Hot-path engineering (outcome-identical to the straightforward form —
``tests/test_hotpath_equivalence.py`` keeps that form as the reference and
compares times, their insertion order and every effort counter):

* every per-operation lookup — reservation table, lowered resource
  entries, SCC membership, memory-ness, intra-SCC distances, direct-arc
  bounds at this II — is precomputed once per attempt into dense arrays;
* one fused loop places the priority list: legal-range lookup, the
  blocked-mask scan (one bitmask covering a whole II of slots, read off
  the packed table's occupancy arrays), first fit and the placement run
  inline, with counters and tables in locals.  The ``placements``
  accounting still counts exactly the probes a cycle-by-cycle scan would
  have made, so search budgets cut off at identical states;
* the backtracker tests catch points against a private view of the
  failing operation's legal range and resource occupancy with the swept
  positions removed, then unschedules only the positions from the catch
  up: a rule-3 catch restores nothing, because nothing below it moved;
* legal ranges are cached in a list indexed by operation and invalidated
  through a precomputed inverse dependency map on place/unplace, instead
  of being recomputed from all placed predecessors and successors on
  every query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription
from ..machine.resources import ModuloReservationTable, blocked_slots, dilate
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
    early as possible (Section 2.7).  The state is *exhausted* once
    ``next_cycle`` has left ``[lo, hi]`` in the scan direction.
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
    Under a live recorder a memo hit counts ``bnb.memo_hits`` and replays
    the stored attempt's ``bnb.attempt`` event (flagged ``memo``, with no
    span), but none of its search counters: ``bnb.attempts``,
    ``bnb.placements``, ``bnb.backtracks`` and ``bnb.prune.*`` count
    search, not replays.  Traced and untraced runs do the same work.
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


def forget_attempts(loop: Loop) -> None:
    """Drop ``loop``'s memo of completed attempts.

    A cell that searches a loop an earlier cell of its process already
    searched would otherwise replay those attempts and count no search
    effort for them.  The per-II plans and distance tables stay: they are
    precompute, not search, and count nothing.
    """
    vars(loop.ddg).pop("_bnb_attempt_memo", None)


def _record_attempt(rec, loop: Loop, ii: int, result: BnBResult, memo: bool = False) -> None:
    """Fold one attempt's effort into the live recorder (a memo hit's:
    only ``bnb.memo_hits``, nothing was searched).

    Inner-loop effort is counted with plain integers; it is folded into
    the recorder once per attempt so the hot path stays unobserved.
    """
    if memo:
        rec.counter("bnb.memo_hits")
    else:
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
    """One branch-and-bound search at a fixed II and priority order."""

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
        n = loop.n_ops
        self.n = n
        self.ii = ii
        self.order = plan.order
        self.pos_of = plan.pos_of
        self.config = config
        self.pairer = pairer
        self.dists = base.dists
        self.mrt = ModuloReservationTable(ii, machine.availability)
        self.times: Dict[int, int] = {}
        # Indexed by priority position; None until the position is reached.
        self.states: List[Optional[_State]] = [None] * n
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
        # op -> (lo, hi, direction) against the current schedule, or None.
        self._range_cache: List[Optional[Tuple[int, int, int]]] = [None] * n

    # ------------------------------------------------------------------
    # Bank-pairing primitives (the main loop and the backtracker inline
    # the same placement steps)
    # ------------------------------------------------------------------
    def _place(self, op: int, cycle: int) -> None:
        self.mrt.place_lowered(self._lt[op], cycle)
        self.times[op] = cycle
        if self._is_mem[op]:
            at_slot = self._mem_at_slot.setdefault(cycle % self.ii, {})
            at_slot[op] = at_slot.get(op, 0) + 1
        cache = self._range_cache
        for dep in self._range_inv[op]:
            cache[dep] = None

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
            cache[dep] = None
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
        cached = self._range_cache[op]
        if cached is None:
            cached = self._range_cache[op] = self._range(op, self.times)
        return cached[0], cached[1]

    def _range(self, op: int, times: Dict[int, int]) -> Tuple[int, int, int]:
        """Legal cycle range and scan direction for ``op`` against ``times``.

        SCC members consult the longest-path table against scheduled
        members of their component; other operations consult their direct
        scheduled predecessors and successors.  The range is clipped to II
        cycles (searching further would revisit the same modulo slots).

        Against the live schedule the result is cached in ``_range_cache``;
        placing or unplacing any operation it depends on (via
        ``_range_inv``) invalidates the entry.
        """
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
            return 0, self.ii - 1, 1
        if lo is None:
            # Only successors constrain: place as late as possible.
            return hi - self.ii + 1, hi, -1
        if hi is None:
            # Only predecessors constrain: place as early as possible.
            return lo, lo + self.ii - 1, 1
        # Both sides constrain: place next to the consumers.  With the
        # production orders, an operation's not-yet-scheduled inputs will
        # in turn be dragged toward it, keeping live ranges short from
        # their beginnings (Section 2.7).  The II-cycle clip is anchored at
        # the consumer end to match.
        if soft_bounds and lo > hi:
            # Soft (cross-SCC) bounds only: conflicts are repairable by
            # pipestage adjustment, so keep a producer-side window.
            hi = lo + self.ii - 1
        return max(lo, hi - self.ii + 1), hi, -1

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------
    def _result(self, times: Optional[Dict[int, int]]) -> BnBResult:
        return BnBResult(
            times, self.placements, self.backtracks, self.prunes, self.max_depth
        )

    def run(self) -> BnBResult:
        """Place the priority list in order, backtracking on failure.

        One fused loop per placement: legal-range lookup, blocked-mask
        scan, first fit and placement inline, against the packed table's
        occupancy arrays.  Probe accounting is that of a cycle-by-cycle
        scan (see the module docstring).  Operations a :class:`BankPairer`
        wants paired, and memory references once any is placed, take the
        cycle-by-cycle scans that weigh bank pairs and risky groupings.
        """
        if not self.dists.feasible:
            return self._result(None)
        n = self.n
        order = self.order
        times = self.times
        states = self.states
        max_placements = self.config.max_placements
        max_backtracks = self.config.max_backtracks
        pairer = self.pairer
        ii = self.ii
        wrap = (1 << ii) - 1
        mrt = self.mrt
        full = mrt.full
        counts = mrt.counts
        avail = mrt.index.avail
        lts = self._lt
        is_mem = self._is_mem
        mem_at_slot = self._mem_at_slot
        range_cache = self._range_cache
        range_inv = self._range_inv
        compute_range = self._range
        backtrack = self._backtrack
        placements = backtracks = max_depth = 0
        i = 0
        while i < n:
            if placements > max_placements:
                break
            op = order[i]
            if op in times:
                i += 1  # already scheduled as someone's bank partner
                continue
            if i > max_depth:
                max_depth = i
            state = states[i]
            if state is None:
                rng = range_cache[op]
                if rng is None:
                    rng = range_cache[op] = compute_range(op, times)
                lo, hi, direction = rng
                state = states[i] = _State(op, lo, hi, lo if direction > 0 else hi, direction)
            else:
                lo, hi, direction = state.lo, state.hi, state.direction
            start = state.next_cycle
            cycle: Optional[int] = None
            risk_scan = False
            if pairer is not None:
                if (
                    pairer.want_more_pairs()
                    and pairer.is_pairable(op)
                    and pairer.mate_of(op) is None
                ):
                    self.placements = placements
                    cycle = self._scan_with_pairing(state)
                    placements = self.placements
                # No cycle admits a pair: place unpaired, avoiding risky
                # groupings once any memory reference is placed.
                risk_scan = cycle is None and is_mem[op] and bool(mem_at_slot)
                if risk_scan:
                    self.placements = placements
                    cycle = self._scan_avoiding_risk(state)
                    placements = self.placements
            if cycle is None and not risk_scan:
                # First fit over the candidate window.  It never exceeds II
                # cycles, so each modulo slot is visited at most once and
                # one blocked mask covers the whole scan.
                if direction > 0:
                    span, low = hi - start + 1, start
                else:
                    span, low = start - lo + 1, lo
                if span > 0:
                    lt = lts[op]
                    runs = lt.mask_runs
                    if runs is not None:
                        blocked = 0
                        for off, rid, length in runs:
                            m = full[rid]
                            if m:
                                if length > 1:
                                    m = dilate(m, length, ii)
                                blocked |= ((m >> off) | (m << (ii - off))) & wrap
                    else:
                        blocked = blocked_slots(lt, ii, full, counts, avail)
                    free = ~blocked & wrap
                    r = low % ii
                    aligned = ((free >> r) | (free << (ii - r))) & ((1 << span) - 1)
                    if not aligned:
                        # Probe parity with the risk-avoiding scan, which
                        # (with no memory reference placed yet) re-probes
                        # every candidate in its second pass.
                        placements += 2 * span if pairer is not None and is_mem[op] else span
                    else:
                        if direction > 0:
                            offset = (aligned & -aligned).bit_length() - 1
                            cycle = start + offset
                            placements += offset + 1
                        else:
                            offset = aligned.bit_length() - 1  # latest free cycle
                            cycle = lo + offset
                            placements += span - offset
                        r = cycle % ii
                        for rid, m in lt.unit_groups:
                            full[rid] |= ((m << r) | (m >> (ii - r))) & wrap
                        for off, rid, cnt in lt.multi_entries:
                            s = r + off
                            if s >= ii:
                                s -= ii
                            k = rid * ii + s
                            c = counts[k] + cnt
                            counts[k] = c
                            if c >= avail[rid]:
                                full[rid] |= 1 << s
                        times[op] = cycle
                        if is_mem[op]:
                            at_slot = mem_at_slot.get(r)
                            if at_slot is None:
                                at_slot = mem_at_slot[r] = {}
                            at_slot[op] = at_slot.get(op, 0) + 1
                        for dep in range_inv[op]:
                            range_cache[dep] = None
            if cycle is not None:
                state.cycle = cycle
                state.next_cycle = cycle + direction
                i += 1
                continue
            state.next_cycle = hi + 1 if direction > 0 else lo - 1
            state.cycle = None
            self.placements = placements
            catch = backtrack(i, backtracks >= max_backtracks)
            placements = self.placements
            if catch is None or backtracks >= max_backtracks:
                break
            backtracks += 1
            i = catch
        self.placements = placements
        self.backtracks = backtracks
        self.max_depth = max_depth
        return self._result(dict(times) if i >= n else None)

    def _scan_avoiding_risk(self, state: _State) -> Optional[int]:
        """First fit preferring cycles without a risky memory grouping.

        Riskiness depends on co-resident memory ops, so this scan stays
        cycle by cycle (a risky cycle skipped in the first pass is not
        probed); the fit test itself is one bit probe, as occupancy cannot
        change mid-scan.  Places the op on success.
        """
        op = state.op
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
                    return cycle
        return None

    def _scan_with_pairing(self, state: _State) -> Optional[int]:
        """Find a cycle where the op fits *and* a known opposite-bank partner
        can be placed alongside it; place both on success."""
        op = state.op
        fits = self.mrt.fits_lowered
        lt = self._lt[op]
        for cycle in state.candidates():
            self.placements += 1  # one probe per candidate, as in first fit
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
            self.placements += 1  # one probe, as in first fit
            if not fits(lts[partner], cycle):
                continue
            self._place(partner, cycle)
            pairer.note_pair(op, partner)
            self.states[self.pos_of[partner]] = _State(
                op=partner, lo=cycle, hi=cycle, next_cycle=cycle + 1,
                cycle=cycle, via_pairing=True,
            )
            return True
        return False

    # ------------------------------------------------------------------
    # Backtracking with catch-point pruning
    # ------------------------------------------------------------------
    def _backtrack(self, fail_pos: int, last: bool) -> Optional[int]:
        """Choose the catch point for ``fail_pos``, then unschedule above it.

        The sweep walks positions downward and tests each as a catch under
        the pruning rules *as if* it and everything swept before it were
        unscheduled.  The real schedule is untouched: the failing
        operation's legal range and resource occupancy are evaluated in a
        private view (``vtimes``, ``vfull``/``vcounts``) with the swept
        operations, and their out-of-band bank partners, removed.  Only
        the positions from the catch up (and their partners) are then
        unscheduled for real, so a rule-3 catch restores nothing.  With
        ``last`` set the caller stops whatever is caught (the backtrack
        budget is spent), and nothing is unscheduled.
        """
        order = self.order
        states = self.states
        times = self.times
        config = self.config
        prune = config.prune
        use_rule3 = config.use_rule3
        pairer = self.pairer
        prunes = self.prunes
        rule1_pos = self._rule1_pos
        tkey = self._tkey
        lts = self._lt
        ii = self.ii
        wrap = (1 << ii) - 1
        mrt = self.mrt
        full = mrt.full
        counts = mrt.counts
        avail = mrt.index.avail
        placements = self.placements
        target = order[fail_pos]
        target_tkey = tkey[target]
        target_lt = lts[target]
        target_rids = target_lt.rids
        range_inv = self._range_inv
        target_runs = target_lt.mask_runs
        probed = target_runs is None  # blocked slots read counts too
        # (pos, op, cycle) in sweep order; a partner follows its primary.
        swept: List[Tuple[int, int, int]] = []
        applied = 0  # swept entries already removed from the view
        vtimes: Optional[Dict[int, int]] = None
        vfull: Optional[List[int]] = None
        vcounts: Optional[List[int]] = None
        rng = self._range_cache[target]  # the view's range; None = stale
        free: Optional[int] = None  # the view's free slots; None = stale
        rule3_catch: Optional[int] = None
        rule3_depth = 0
        catch: Optional[int] = None

        for j in range(fail_pos - 1, -1, -1):
            state = states[j]
            if state is None:
                continue
            old_cycle = state.cycle
            if old_cycle is None:
                continue
            jop = order[j]
            if jop not in times:
                continue
            swept.append((j, jop, old_cycle))
            if pairer is not None:
                # A partner swept earlier in this sweep sits below fail_pos.
                mate = pairer.mate_of(jop)
                if mate is not None and self.pos_of[mate] > fail_pos:
                    # Out-of-band partner ahead of the failure point: it was
                    # only scheduled for this pair, so release it too.
                    swept.append((self.pos_of[mate], mate, times[mate]))
            if state.via_pairing:
                continue  # partners have no range of their own; cannot catch
            direction = state.direction
            if direction > 0:
                exhausted = state.next_cycle > state.hi
            else:
                exhausted = state.next_cycle < state.lo
            if not prune:
                if not exhausted:
                    catch = j
                    break
                continue
            if rule1_pos[j] != j:
                prunes["rule1"] = prunes.get("rule1", 0) + 1
                continue  # rule 1
            if exhausted:
                prunes["exhausted"] = prunes.get("exhausted", 0) + 1
                continue
            # Bring the view up to date with everything swept so far.  The
            # free slots go stale only when a full bit clears (or, for a
            # table probed slot by slot, when any count it reads drops).
            for k in range(applied, len(swept)):
                _, x, cx = swept[k]
                if target in range_inv[x]:
                    rng = None
                    if vtimes is None:
                        vtimes = dict(times)
                    del vtimes[x]
                lt = lts[x]
                if target_rids.isdisjoint(lt.rids):
                    continue
                if vfull is None:
                    vfull = full[:]
                r = cx % ii
                for rid, m in lt.unit_groups:
                    if rid in target_rids:
                        vfull[rid] &= ~(((m << r) | (m >> (ii - r))) & wrap)
                        free = None
                for off, rid, cnt in lt.multi_entries:
                    if rid in target_rids:
                        s = r + off
                        if s >= ii:
                            s -= ii
                        # Below a clear full bit a count only drops further:
                        # only a full slot's count (or, for a probed table,
                        # every count) is worth keeping.
                        if probed or (vfull[rid] >> s) & 1:
                            if vcounts is None:
                                vcounts = counts[:]
                            idx = rid * ii + s
                            left = vcounts[idx] - cnt
                            vcounts[idx] = left
                            if left < avail[rid]:
                                vfull[rid] &= ~(1 << s)
                                free = None
                            elif probed:
                                free = None
            applied = len(swept)
            if rng is None:
                if vtimes is None:
                    rng = self._range_cache[target] = self._range(target, times)
                else:
                    rng = self._range(target, vtimes)
            lo, hi, _ = rng
            span = hi - lo + 1
            if span <= 0:
                prunes["no_slot"] = prunes.get("no_slot", 0) + 1
                continue
            # One blocked mask stands in for probing every cycle of
            # [lo, hi]; the probes are still charged to the budget.
            placements += span
            if free is None:
                fl = full if vfull is None else vfull
                if target_runs is not None:
                    blocked = 0
                    for off, rid, length in target_runs:
                        m = fl[rid]
                        if m:
                            if length > 1:
                                m = dilate(m, length, ii)
                            blocked |= ((m >> off) | (m << (ii - off))) & wrap
                else:
                    blocked = blocked_slots(
                        target_lt, ii, fl, counts if vcounts is None else vcounts, avail
                    )
                free = ~blocked & wrap
            r = lo % ii
            open_mask = ((free >> r) | (free << (ii - r))) & ((1 << span) - 1)
            if not open_mask:
                prunes["no_slot"] = prunes.get("no_slot", 0) + 1
                continue
            if tkey[jop] != target_tkey:
                prunes["catch_rule2"] = prunes.get("catch_rule2", 0) + 1
                catch = j  # rule 2: non-identical resources, now schedulable
                break
            if use_rule3 and rule3_catch is None:
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
                    rule3_depth = len(swept)
                    continue
            prunes["same_resource"] = prunes.get("same_resource", 0) + 1

        self.placements = placements
        below: List[Tuple[int, int, int]] = []
        if catch is None and rule3_catch is not None:
            prunes["catch_rule3"] = prunes.get("catch_rule3", 0) + 1
            catch = rule3_catch
            below = swept[rule3_depth:]  # swept past the catch: stay placed
            del swept[rule3_depth:]
        if catch is None or last:
            return catch
        range_cache = self._range_cache
        is_mem = self._is_mem
        mem_at_slot = self._mem_at_slot
        for pos, op, cycle in swept:
            del times[op]
            lt = lts[op]
            r = cycle % ii
            for rid, m in lt.unit_groups:
                full[rid] &= ~(((m << r) | (m >> (ii - r))) & wrap)
            for off, rid, cnt in lt.multi_entries:
                s = r + off
                if s >= ii:
                    s -= ii
                k = rid * ii + s
                c = counts[k] - cnt
                counts[k] = c
                if c < avail[rid]:
                    full[rid] &= ~(1 << s)
            if is_mem[op]:
                at_slot = mem_at_slot[r]
                remaining = at_slot[op] - 1
                if remaining:
                    at_slot[op] = remaining
                else:
                    del at_slot[op]
            if pairer is not None:
                pairer.unnote(op)
            for dep in range_inv[op]:
                range_cache[dep] = None
            if pos > fail_pos:
                states[pos] = None  # a released partner starts over
        states[catch].cycle = None
        # Positions above the catch start over with fresh legal ranges.
        for pos in range(catch + 1, fail_pos + 1):
            if order[pos] not in times:
                states[pos] = None
        # Keep the insertion order that unscheduling and re-placing the
        # positions below a rule-3 catch gave the schedule: that moved a
        # released bank partner before its primary.  Without a pairer the
        # order is ascending by position either way.
        if pairer is not None:
            for _, op, _ in reversed(below):
                times[op] = times.pop(op)
        return catch
