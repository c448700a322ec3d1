"""Spilling to alleviate register pressure (Section 2.8).

When a schedule cannot be register allocated, the pipeliner spills values
to memory and schedules again.  Candidates are ranked by the ratio of
cycles spanned to number of references — "the greater this ratio, the
greater the cost and smaller the benefit of keeping the value in a
register".  Spill counts grow exponentially across failures (1, 2, 4, ...),
capped at 8 failed passes (at most 255 spilled values): :func:`spill_loop`,
around the scheduling round each heuristic pipeliner (SGI, Rau94) supplies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..ir.ddg import DDG, Dependence, DepKind
from ..ir.loop import Loop
from ..ir.operations import MemRef, OpClass, Operation
from ..machine.descriptions import MachineDescription
from ..obs import get_recorder
from ..regalloc.coloring import AllocationResult
from .iisearch import IIAttempt
from .sched import Schedule

SPILL_TAG = "spill"
MAX_SPILL_ROUNDS = 8

#: A schedule, its allocation and its priority order ("" without orders).
Pick = Tuple[Schedule, AllocationResult, str]


@dataclass
class RoundOutcome:
    """One scheduling round: the best schedule that allocated, else the best
    one that did not (the next round spills from it), and the round's II
    trail."""

    best: Optional[Pick] = None
    best_failed: Optional[Pick] = None
    attempted: List[IIAttempt] = field(default_factory=list)


def spill_loop(
    loop: Loop,
    machine: MachineDescription,
    tag: str,
    schedule_round: Callable[[Loop, int], RoundOutcome],
) -> Tuple[RoundOutcome, Loop, List[str], int]:
    """Run ``schedule_round(loop, spill_round)`` until a round allocates.

    After a round that found schedules but none that allocates, spill the
    best candidates of its ``best_failed`` allocation — 1, 2, 4, ...
    values, never more than the distinct values that failed to colour —
    and run the next round on the rewritten loop.  Stops when a round
    allocates, finds no schedule, leaves nothing to spill or is round
    ``MAX_SPILL_ROUNDS``.  Returns the final round's outcome, the loop it
    scheduled, the spilled values and the round's index.
    """
    rec = get_recorder()
    current = loop
    spilled: List[str] = []
    budget = 1
    for spill_round in range(MAX_SPILL_ROUNDS + 1):
        with rec.span(f"{tag}.round", loop=current.name, spill_round=spill_round):
            outcome = schedule_round(current, spill_round)
        if outcome.best is not None or outcome.best_failed is None:
            break
        failed = outcome.best_failed[1]
        distinct_failed = len({lr.value for lr in failed.uncolored})
        candidates = choose_spill_candidates(
            failed, current, set(spilled), min(budget, max(1, distinct_failed))
        )
        if not candidates or spill_round == MAX_SPILL_ROUNDS:
            break
        rec.counter("spill.rounds")
        current = insert_spills(current, machine, candidates)
        spilled.extend(candidates)
        budget *= 2
    return outcome, current, spilled, spill_round


def choose_spill_candidates(
    alloc: AllocationResult,
    loop: Loop,
    already: Set[str],
    count: int,
    min_span: int = 10,
) -> List[str]:
    """The ``count`` best values to spill, by decreasing spill ratio.

    Loop-carried values and values created by earlier spill rounds are not
    candidates; nor are values whose lifetime is shorter than ``min_span``
    — the store/reload round-trip would outlive the range being freed.
    Loop invariants ARE candidates: they are reloaded before each use
    (restore-only, no store), freeing a whole-kernel register.
    """
    defs = loop.defs_of()
    seen: Dict[str, float] = {}
    for lr in alloc.renamed.ranges:
        if lr.carried:
            continue
        if lr.value in already:
            continue
        if not lr.is_invariant:
            if lr.value not in defs:
                continue
            if lr.span < min_span:
                continue
            if SPILL_TAG in loop.ops[defs[lr.value]].tags:
                continue
        ratio = lr.spill_ratio
        if ratio > seen.get(lr.value, float("-inf")):
            seen[lr.value] = ratio
    ranked = sorted(seen, key=lambda v: (-seen[v], v))
    return ranked[:count]


def insert_spills(loop: Loop, machine: MachineDescription, values: List[str]) -> Loop:
    """Rewrite the loop with spill stores after defs and restores before uses.

    Each spilled value gets a private spill *array* indexed by the loop
    counter (iteration ``n`` uses element ``n``), so a restore may be
    scheduled any number of pipestages after its store — a single reused
    cell would chain the restore to within II cycles of the store, which
    defeats spilling for exactly the long lifetimes that need it.  Every
    use gets its own restore load, which is what actually shortens the
    pressure-inducing live range.

    Loop invariants are spilled restore-only: their value already lives in
    memory, so each use just reloads it (a fixed cell, zero stride).
    """
    to_spill = set(values)
    defs = loop.defs_of()
    invariant_spills = set()
    for v in to_spill:
        if v in defs:
            continue
        if v in loop.live_in:
            invariant_spills.add(v)
        else:
            raise ValueError(f"cannot spill {v!r}: not defined in loop {loop.name!r}")

    new_ops: List[Operation] = []
    index_map: Dict[int, int] = {}
    # (user old index, spilled value) -> restore load new index
    restores: Dict[Tuple[int, str], int] = {}
    stores: Dict[str, int] = {}  # spilled value -> spill store new index
    fresh = 0

    def slot_base(v: str) -> str:
        return f"__spill_{v}"

    for op in loop.ops:
        spilled_srcs = sorted(s for s in set(op.srcs) if s in to_spill)
        renames: Dict[str, str] = {}
        for v in spilled_srcs:
            fresh += 1
            restored = f"{v}!r{fresh}"
            stride = 0 if v in invariant_spills else 8
            load = Operation(
                index=len(new_ops),
                opcode="load.spill",
                opclass=OpClass.LOAD,
                dests=(restored,),
                srcs=(),
                mem=MemRef(base=slot_base(v), offset=0, stride=stride, width=8),
                tags=frozenset({SPILL_TAG}),
            )
            restores[(op.index, v)] = load.index
            new_ops.append(load)
            renames[v] = restored
        new_index = len(new_ops)
        index_map[op.index] = new_index
        new_ops.append(
            Operation(
                index=new_index,
                opcode=op.opcode,
                opclass=op.opclass,
                dests=op.dests,
                srcs=tuple(renames.get(s, s) for s in op.srcs),
                mem=op.mem,
                tags=op.tags,
            )
        )
        for d in op.dests:
            if d in to_spill:
                store = Operation(
                    index=len(new_ops),
                    opcode="store.spill",
                    opclass=OpClass.STORE,
                    dests=(),
                    srcs=(d,),
                    mem=MemRef(base=slot_base(d), offset=0, stride=8, width=8, is_store=True),
                    tags=frozenset({SPILL_TAG}),
                )
                stores[d] = store.index
                new_ops.append(store)

    arcs: List[Dependence] = []
    for arc in loop.ddg.arcs:
        if arc.kind is DepKind.FLOW and arc.value in to_spill:
            continue  # replaced by spill plumbing below
        arcs.append(
            Dependence(
                src=index_map[arc.src],
                dst=index_map[arc.dst],
                latency=arc.latency,
                omega=arc.omega,
                kind=arc.kind,
                value=arc.value,
            )
        )
    load_latency = machine.latency(OpClass.LOAD)
    for v in sorted(to_spill):
        if v in invariant_spills:
            # Restore-only: just the load -> user flow arcs.
            for (user_old, value), load_new in restores.items():
                if value != v:
                    continue
                arcs.append(
                    Dependence(
                        src=load_new,
                        dst=index_map[user_old],
                        latency=load_latency,
                        omega=0,
                        kind=DepKind.FLOW,
                        value=new_ops[load_new].dest,
                    )
                )
            continue
        def_new = index_map[defs[v]]
        store_new = stores[v]
        def_op = new_ops[def_new]
        # def -> spill store (the value's only remaining register use).
        arcs.append(
            Dependence(
                src=def_new,
                dst=store_new,
                latency=machine.latency(def_op.opclass),
                omega=0,
                kind=DepKind.FLOW,
                value=v,
            )
        )
        for (user_old, value), load_new in restores.items():
            if value != v:
                continue
            user_new = index_map[user_old]
            restored = new_ops[load_new].dest
            arcs.append(
                Dependence(
                    src=load_new,
                    dst=user_new,
                    latency=load_latency,
                    omega=0,
                    kind=DepKind.FLOW,
                    value=restored,
                )
            )
            # store -> restore through the spill slot.
            arcs.append(
                Dependence(
                    src=store_new,
                    dst=load_new,
                    latency=machine.store_to_load_latency,
                    omega=0,
                    kind=DepKind.MEM,
                )
            )

    # The compiler lays out spill slots itself, so their double-word
    # parities are known: alternate them so spill traffic is pairable into
    # opposite banks (Section 2.9 applies to spill code too).
    known_parity = dict(loop.known_parity)
    for i, v in enumerate(sorted(to_spill)):
        known_parity.setdefault(slot_base(v), i % 2)
    new_loop = Loop(
        name=loop.name,
        ops=new_ops,
        ddg=DDG(len(new_ops), arcs),
        live_in=set(loop.live_in) - invariant_spills,
        live_out=set(loop.live_out),
        trip_count=loop.trip_count,
        weight=loop.weight,
        known_parity=known_parity,
    )
    new_loop.check_well_formed()
    rec = get_recorder()
    if rec.enabled:
        rec.counter("spill.values", len(to_spill))
        rec.counter("spill.ops_added", len(new_ops) - len(loop.ops))
        rec.event(
            "spill.insert",
            loop=loop.name,
            values=sorted(to_spill),
            restore_only=sorted(invariant_spills),
        )
    return new_loop
