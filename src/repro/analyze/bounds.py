"""Certified static II lower bounds, derived before any scheduling.

``MinII = max(ResMII, RecMII)`` is the paper's yardstick, but it is a
*loose* bound: ResMII counts resources over the whole body and RecMII
looks at dependence circuits, while the real scheduler must satisfy both
kinds of constraint *simultaneously*.  This module derives refined lower
bounds that combine them:

* **recurrence certificate** — a critical circuit extracted from the
  longest-path relaxation, proving ``II >= ceil(L / D)``;
* **resource certificate** — the counting argument behind ResMII for the
  binding resource;
* **slot-conflict certificate** (per candidate II) — operations *rigid*
  relative to an anchor (their offset is forced by equal-and-opposite
  longest paths) demand more of one resource in one modulo slot than the
  machine has;
* **offset-exclusion certificate** (per candidate II) — one operation
  whose dependence window admits no issue offset at all: every candidate
  offset collides with the reservation pattern of the rigid operations
  (the way two unpipelined divide runs must thread around each other);
* **window-density certificate** (per candidate II) — a set of
  operations whose feasible issue offsets are confined to a window of
  ``S <= II`` cycles while their resource demand exceeds
  ``availability * S``;
* **register-pressure certificate** (per candidate II) — minimum value
  lifetimes at that II force ``ceil(sum(lifetimes)/II) + invariants``
  simultaneously-live ranges of one register class past the register
  file, so no schedule at that II survives allocation without spilling;
* **bank-pairing certificate** — a vertex-cover bound on how many
  compile-time opposite-bank pairs can exist, limiting the II at which
  the Section 2.9 pairing goal (``n_refs - II`` known pairs) is met.

Every bound ships a machine-checkable certificate (plain dicts, JSON
serialisable) that :mod:`repro.verify.boundcheck` validates from the DDG
and machine description alone.  The certificates claim *exactly* what
their witnesses prove — no slack — so a checker can insist on equality
and any tampering with a single field is detectable.

Certificates are sound against *relaxed* arc claims: a claimed arc
``[src, dst, lat, omega]`` is valid when a real DDG arc ``src -> dst``
has ``latency >= lat`` and ``omega <= omega_claimed`` (both directions
only weaken the derived bound).  This module always emits the real
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..ir.ddg import DDG, Dependence, DepKind
from ..ir.loop import Loop
from ..ir.operations import relative_bank
from ..machine.descriptions import MachineDescription
from ..core.minii import max_ii, rec_mii, res_mii
from ..regalloc.rename import value_reg_class

Certificate = Dict[str, Any]

#: Maximum path-expansion steps before giving up on a witness (defensive;
#: strict-improvement Floyd-Warshall cannot loop, but a witness is worthless
#: if we cannot terminate while building it).
_PATH_EXPANSION_LIMIT = 100_000


def _arc4(arc: Dependence) -> List[int]:
    """The four-field arc witness ``[src, dst, latency, omega]``."""
    return [arc.src, arc.dst, arc.latency, arc.omega]


# ----------------------------------------------------------------------
# Base certificates: ResMII counting and RecMII critical circuit
# ----------------------------------------------------------------------
def resource_certificate(loop: Loop, machine: MachineDescription) -> Certificate:
    """Counting witness for the binding resource of ResMII."""
    demand: Dict[str, int] = {}
    per_op: Dict[str, List[Tuple[int, int]]] = {}
    for op in loop.ops:
        for use in machine.table(op.opclass).uses:
            demand[use.resource] = demand.get(use.resource, 0) + use.count
            per_op.setdefault(use.resource, []).append((op.index, use.count))
    best_resource = ""
    best_bound = 1
    for resource in sorted(demand):
        avail = machine.availability.get(resource, 0)
        if avail <= 0:
            continue
        bound = math.ceil(demand[resource] / avail)
        if bound > best_bound:
            best_bound = bound
            best_resource = resource
    if not best_resource:
        # Nothing binds above 1; pick any resource so the witness is complete.
        best_resource = sorted(demand)[0] if demand else "issue"
    contributions = _merge_counts(per_op.get(best_resource, []))
    total = sum(count for _, count in contributions)
    avail = machine.availability.get(best_resource, 1)
    return {
        "kind": "resource",
        "regime": "schedule",
        "resource": best_resource,
        "available": avail,
        "contributions": [[op, count] for op, count in contributions],
        "total": total,
        "bound": max(1, math.ceil(total / max(avail, 1))),
    }


def _merge_counts(pairs: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    merged: Dict[int, int] = {}
    for op, count in pairs:
        merged[op] = merged.get(op, 0) + count
    return sorted(merged.items())


def recurrence_certificate(loop: Loop, rec: Optional[int] = None) -> Optional[Certificate]:
    """Extract a critical dependence circuit proving ``II >= RecMII``.

    Runs the longest-path relaxation at ``II = RecMII - 1`` (where a
    positive circuit must exist) recording predecessor arcs, then walks
    predecessors ``n`` steps to land inside a positive circuit and
    collects it.  The circuit satisfies ``L - (rec-1) * D > 0`` hence
    ``ceil(L / D) >= rec``, and since no circuit beats RecMII,
    ``ceil(L / D) == rec`` exactly.
    """
    rec = rec_mii(loop) if rec is None else rec
    if rec <= 1:
        return None
    ii = rec - 1
    n = loop.n_ops
    dist = [0] * n
    pred: Dict[int, Dependence] = {}  # node -> the arc that last raised it
    arcs = loop.ddg.arcs
    last_updated = -1
    for _ in range(n + 1):
        changed = False
        for arc in arcs:
            w = arc.latency - ii * arc.omega
            if dist[arc.src] + w > dist[arc.dst]:
                dist[arc.dst] = dist[arc.src] + w
                pred[arc.dst] = arc
                last_updated = arc.dst
                changed = True
        if not changed:
            break
    if last_updated < 0:
        return None  # RecMII disagrees with the relaxation; refuse to guess
    # Walk back n steps: we are then guaranteed to sit on a positive circuit
    # (every node on the walk was raised, so ``pred`` has it).
    node = last_updated
    for _ in range(n):
        node = pred[node].src
    seen: Dict[int, int] = {}
    trail: List[Dependence] = []
    cur = node
    while cur not in seen:
        seen[cur] = len(trail)
        arc = pred[cur]
        trail.append(arc)
        cur = arc.src
    circuit = list(reversed(trail[seen[cur] :]))
    total_latency = sum(arc.latency for arc in circuit)
    total_omega = sum(arc.omega for arc in circuit)
    if total_omega <= 0:
        return None  # an uncarried positive circuit; rec_mii raises on these
    return {
        "kind": "recurrence",
        "regime": "schedule",
        "arcs": [_arc4(arc) for arc in circuit],
        "total_latency": total_latency,
        "total_omega": total_omega,
        "bound": math.ceil(total_latency / total_omega),
    }


# ----------------------------------------------------------------------
# Per-SCC longest-path tables at a candidate II, with arc witnesses
# ----------------------------------------------------------------------
class SccPaths:
    """All-pairs longest paths inside one SCC at a fixed II.

    Arc weight is ``latency - II * omega``; ``dist[i][j]`` is the longest
    path weight from member ``i`` to member ``j`` over intra-SCC arcs, a
    lower bound on ``t(j) - t(i)`` in any schedule at this II.  The table
    keeps ``via`` midpoints and the best direct arc per pair so every
    distance can be expanded into an explicit arc path (the certificate
    witness).  At a feasible II no circuit is positive, so strict
    improvements terminate and ``dist[i][i] == 0``.
    """

    def __init__(self, ddg: DDG, members: Sequence[int], ii: int) -> None:
        self.ii = ii
        self.members: Tuple[int, ...] = tuple(members)
        self.index: Dict[int, int] = {op: i for i, op in enumerate(self.members)}
        n = len(self.members)
        self.dist: List[List[Optional[int]]] = [[None] * n for _ in range(n)]
        self.via: List[List[Optional[int]]] = [[None] * n for _ in range(n)]
        self._direct: Dict[Tuple[int, int], Dependence] = {}
        for arc in ddg.arcs:
            i = self.index.get(arc.src)
            j = self.index.get(arc.dst)
            if i is None or j is None or i == j:
                continue
            w = arc.latency - ii * arc.omega
            cur = self.dist[i][j]
            if cur is None or w > cur:
                self.dist[i][j] = w
                self._direct[(i, j)] = arc
        for i in range(n):
            self.dist[i][i] = 0
        for k in range(n):
            dk = self.dist[k]
            for i in range(n):
                dik = self.dist[i][k]
                if dik is None:
                    continue
                di = self.dist[i]
                vi = self.via[i]
                for j in range(n):
                    dkj = dk[j]
                    if dkj is None:
                        continue
                    cand = dik + dkj
                    cur = di[j]
                    if cur is None or cand > cur:
                        di[j] = cand
                        vi[j] = k

    def lo(self, anchor: int, op: int) -> Optional[int]:
        """Lower bound on ``t(op) - t(anchor)``."""
        return self.dist[self.index[anchor]][self.index[op]]

    def hi(self, anchor: int, op: int) -> Optional[int]:
        """Upper bound on ``t(op) - t(anchor)`` (negated return path)."""
        back = self.dist[self.index[op]][self.index[anchor]]
        return None if back is None else -back

    def path(self, src: int, dst: int) -> Optional[List[Dependence]]:
        """Expand ``dist[src][dst]`` into an explicit arc path."""
        budget = [_PATH_EXPANSION_LIMIT]
        try:
            return self._expand(self.index[src], self.index[dst], budget)
        except RecursionError:  # pragma: no cover - defensive only
            return None

    def _expand(self, i: int, j: int, budget: List[int]) -> Optional[List[Dependence]]:
        budget[0] -= 1
        if budget[0] <= 0:  # pragma: no cover - defensive only
            return None
        if i == j and self.via[i][j] is None:
            return []
        k = self.via[i][j]
        if k is None:
            arc = self._direct.get((i, j))
            return None if arc is None else [arc]
        left = self._expand(i, k, budget)
        right = self._expand(k, j, budget)
        if left is None or right is None:  # pragma: no cover - defensive only
            return None
        return left + right


# ----------------------------------------------------------------------
# Per-II infeasibility: slot conflicts and window density
# ----------------------------------------------------------------------
def _rigid_offsets(paths: SccPaths, anchor: int) -> List[Tuple[int, int]]:
    """Members whose offset relative to ``anchor`` is forced exactly."""
    rigid: List[Tuple[int, int]] = []
    for op in paths.members:
        lo = paths.lo(anchor, op)
        hi = paths.hi(anchor, op)
        if lo is not None and hi is not None and lo == hi:
            rigid.append((op, lo))
    return rigid


def _slot_conflict_certificate(
    loop: Loop, machine: MachineDescription, ii: int, paths: SccPaths, anchor: int
) -> Optional[Certificate]:
    """Rigid ops oversubscribing one (resource, modulo slot) pair."""
    rigid = _rigid_offsets(paths, anchor)
    if len(rigid) < 2:
        return None
    usage: Dict[Tuple[str, int], int] = {}
    for op, offset in rigid:
        for use in machine.table(loop.ops[op].opclass).uses:
            key = (use.resource, (offset + use.offset) % ii)
            usage[key] = usage.get(key, 0) + use.count
    for (resource, slot), used in sorted(usage.items()):
        avail = machine.availability.get(resource, 0)
        if used <= avail:
            continue
        entries: List[Dict[str, Any]] = []
        for op, offset in rigid:
            uses_here = [
                [use.offset, use.count]
                for use in machine.table(loop.ops[op].opclass).uses
                if use.resource == resource and (offset + use.offset) % ii == slot
            ]
            if not uses_here:
                continue
            lb = [] if op == anchor else paths.path(anchor, op)
            ub = [] if op == anchor else paths.path(op, anchor)
            if lb is None or ub is None:  # pragma: no cover - defensive only
                return None
            entries.append(
                {
                    "op": op,
                    "offset": offset,
                    "lb_path": [_arc4(a) for a in lb],
                    "ub_path": [_arc4(a) for a in ub],
                    "uses": uses_here,
                }
            )
        return {
            "kind": "slot_conflict",
            "regime": "schedule",
            "ii": ii,
            "bound": ii + 1,
            "anchor": anchor,
            "resource": resource,
            "slot": slot,
            "available": avail,
            "used": used,
            "rigid": entries,
        }
    return None


def _offset_exclusion_certificate(
    loop: Loop, machine: MachineDescription, ii: int, paths: SccPaths, anchor: int
) -> Optional[Certificate]:
    """A windowed op whose every candidate offset collides with rigid ops.

    The rigid members occupy a fixed pattern of (resource, modulo slot)
    demand.  A non-rigid member confined to ``[lo, hi]`` must pick an
    offset whose residue modulo II keeps every slot within availability;
    when *no* residue reachable from the window survives, the II is
    infeasible.  This is the certificate that catches interlocking
    unpipelined runs (divide/sqrt recurrences): the run must thread the
    gap the rigid runs leave, and the dependence window misses it.
    """
    rigid = _rigid_offsets(paths, anchor)
    if not rigid:
        return None
    usage: Dict[Tuple[str, int], int] = {}
    for op, offset in rigid:
        for use in machine.table(loop.ops[op].opclass).uses:
            key = (use.resource, (offset + use.offset) % ii)
            usage[key] = usage.get(key, 0) + use.count
    rigid_ops = {op for op, _ in rigid}
    for op in paths.members:
        if op in rigid_ops:
            continue
        lo = paths.lo(anchor, op)
        hi = paths.hi(anchor, op)
        if lo is None or hi is None or hi < lo:
            continue
        uses = machine.table(loop.ops[op].opclass).uses
        if not uses:
            continue
        blocked = True
        for offset in range(lo, min(hi, lo + ii - 1) + 1):
            fits = True
            for use in uses:
                key = (use.resource, (offset + use.offset) % ii)
                avail = machine.availability.get(use.resource, 0)
                if usage.get(key, 0) + use.count > avail:
                    fits = False
                    break
            if fits:
                blocked = False
                break
        if not blocked:
            continue
        entries: List[Dict[str, Any]] = []
        witness_failed = False
        for rop, roffset in rigid:
            lb = [] if rop == anchor else paths.path(anchor, rop)
            ub = [] if rop == anchor else paths.path(rop, anchor)
            if lb is None or ub is None:  # pragma: no cover - defensive only
                witness_failed = True
                break
            entries.append(
                {
                    "op": rop,
                    "offset": roffset,
                    "lb_path": [_arc4(a) for a in lb],
                    "ub_path": [_arc4(a) for a in ub],
                }
            )
        if witness_failed:
            continue
        lb = paths.path(anchor, op)
        ub = paths.path(op, anchor)
        if lb is None or ub is None:  # pragma: no cover - defensive only
            continue
        return {
            "kind": "offset_exclusion",
            "regime": "schedule",
            "ii": ii,
            "bound": ii + 1,
            "anchor": anchor,
            "op": op,
            "lo": lo,
            "hi": hi,
            "lb_path": [_arc4(a) for a in lb],
            "ub_path": [_arc4(a) for a in ub],
            "rigid": entries,
        }
    return None


def _window_density_certificate(
    loop: Loop, machine: MachineDescription, ii: int, paths: SccPaths, anchor: int
) -> Optional[Certificate]:
    """Ops confined to a short window demanding more than it can hold.

    Each SCC member's issue offset relative to the anchor is confined to
    ``[lo, hi]`` by its longest paths to and from the anchor.  If a set
    of resource uses is confined to a window of ``S <= II`` cycles and
    their total count exceeds ``availability * S``, the window cannot
    hold them at this II regardless of where in it each op lands.
    """
    items: Dict[str, List[Tuple[int, int, int, int, int, int, int]]] = {}
    for op in paths.members:
        lo = paths.lo(anchor, op)
        hi = paths.hi(anchor, op)
        if lo is None or hi is None or hi < lo:
            continue
        for use in machine.table(loop.ops[op].opclass).uses:
            items.setdefault(use.resource, []).append(
                (lo + use.offset, hi + use.offset, use.count, op, lo, hi, use.offset)
            )
    for resource in sorted(items):
        avail = machine.availability.get(resource, 0)
        if avail <= 0:
            continue
        uses = sorted(items[resource])
        n = len(uses)
        for start in range(n):
            w0 = uses[start][0]
            w1 = uses[start][1]
            if w1 - w0 + 1 > ii:
                continue
            total = 0
            chosen: List[Tuple[int, int, int, int, int, int, int]] = []
            for j in range(start, n):
                cand_hi = max(w1, uses[j][1])
                if cand_hi - w0 + 1 > ii:
                    continue  # skipping an item keeps the subset sound
                w1 = cand_hi
                total += uses[j][2]
                chosen.append(uses[j])
                if total > avail * (w1 - w0 + 1):
                    return _build_window_certificate(
                        ii, paths, anchor, resource, avail, chosen
                    )
    return None


def _build_window_certificate(
    ii: int,
    paths: SccPaths,
    anchor: int,
    resource: str,
    avail: int,
    chosen: Sequence[Tuple[int, int, int, int, int, int, int]],
) -> Optional[Certificate]:
    w0 = min(item[0] for item in chosen)
    w1 = max(item[1] for item in chosen)
    by_op: Dict[int, Dict[str, Any]] = {}
    for cycle_lo, cycle_hi, count, op, lo, hi, use_offset in chosen:
        entry = by_op.get(op)
        if entry is None:
            lb = [] if op == anchor else paths.path(anchor, op)
            ub = [] if op == anchor else paths.path(op, anchor)
            if lb is None or ub is None:  # pragma: no cover - defensive only
                return None
            entry = by_op[op] = {
                "op": op,
                "lo": lo,
                "hi": hi,
                "lb_path": [_arc4(a) for a in lb],
                "ub_path": [_arc4(a) for a in ub],
                "uses": [],
            }
        entry["uses"].append([use_offset, count])
    total = sum(item[2] for item in chosen)
    return {
        "kind": "window_density",
        "regime": "schedule",
        "ii": ii,
        "bound": ii + 1,
        "anchor": anchor,
        "resource": resource,
        "window": [w0, w1],
        "available": avail,
        "used": total,
        "members": [by_op[op] for op in sorted(by_op)],
    }


def prove_ii_infeasible(
    loop: Loop, machine: MachineDescription, ii: int
) -> Optional[Certificate]:
    """A schedule-regime certificate that no legal schedule exists at ``ii``.

    Tries every nontrivial SCC and every member as the anchor; returns the
    first certificate found, or ``None`` when this analysis cannot rule
    the II out (which does *not* mean the II is feasible).
    """
    if ii <= 0:
        return None
    for members in loop.ddg.nontrivial_sccs():
        paths = SccPaths(loop.ddg, members, ii)
        for prover in (
            _slot_conflict_certificate,
            _offset_exclusion_certificate,
            _window_density_certificate,
        ):
            for anchor in members:
                cert = prover(loop, machine, ii, paths, anchor)
                if cert is not None:
                    return cert
    return None


# ----------------------------------------------------------------------
# Register-pressure lower bound at a candidate II
# ----------------------------------------------------------------------
def prove_alloc_infeasible(
    loop: Loop, machine: MachineDescription, ii: int
) -> Optional[Certificate]:
    """An allocation-regime certificate that no schedule at ``ii`` allocates.

    Minimum lifetimes: a value defined by ``d`` and read by ``u`` at
    iteration distance ``omega`` lives at least ``W + II * omega`` cycles
    where ``W`` is the longest d->u path weight at this II (at least the
    flow arc's latency).  Summed over the class and averaged over the
    unrolled kernel, ``ceil(sum / II)`` ranges of the class are live in
    some cycle, plus one whole-kernel range per loop invariant; ranges
    sharing a cycle pairwise interfere, so the class needs that many
    registers in *any* schedule at this II.
    """
    if ii <= 0:
        return None
    defs = loop.defs_of()
    path_tables: Dict[int, SccPaths] = {}

    def paths_for(op: int) -> Optional[SccPaths]:
        if not loop.ddg.in_nontrivial_scc(op):
            return None
        scc = loop.ddg.scc_id(op)
        if scc not in path_tables:
            path_tables[scc] = SccPaths(loop.ddg, loop.ddg.scc_members(op), ii)
        return path_tables[scc]

    by_class: Dict[str, List[Dict[str, Any]]] = {}
    for value in sorted(defs):
        d = defs[value]
        best: Optional[Dict[str, Any]] = None
        for arc in loop.ddg.arcs:
            if arc.kind is not DepKind.FLOW or arc.value != value or arc.src != d:
                continue
            # The witness weight is a lower bound on t(use) - t(def): the
            # arc's own constraint (latency - II*omega, which is 0 for a
            # self-recurrence where def and use coincide), improved by the
            # longest path inside the SCC when that is larger.
            weight = arc.latency - ii * arc.omega
            witness: List[Dependence] = [arc]
            if arc.dst == d:
                weight = 0
                witness = []
            tables = paths_for(d)
            if tables is not None and arc.dst in tables.index:
                refined = tables.lo(d, arc.dst)
                if refined is not None and refined > weight:
                    expanded = tables.path(d, arc.dst)
                    if expanded is not None:
                        weight = refined
                        witness = expanded
            lifetime = max(1, weight + ii * arc.omega)
            if best is None or lifetime > best["lifetime"]:
                best = {
                    "value": value,
                    "def_op": d,
                    "lifetime": lifetime,
                    "use_op": arc.dst,
                    "omega": arc.omega,
                    "path": [_arc4(a) for a in witness],
                }
        if best is None:
            best = {
                "value": value,
                "def_op": d,
                "lifetime": 1,
                "use_op": None,
                "omega": 0,
                "path": [],
            }
        cls = value_reg_class(loop, value).value
        by_class.setdefault(cls, []).append(best)

    invariants: Dict[str, List[str]] = {}
    for value in sorted(loop.live_in):
        if value in defs:
            continue
        if not any(value in op.srcs for op in loop.ops):
            continue
        cls = value_reg_class(loop, value).value
        invariants.setdefault(cls, []).append(value)

    registers = {"fp": machine.fp_regs, "int": machine.int_regs}
    for cls in sorted(registers):
        values = by_class.get(cls, [])
        inv = invariants.get(cls, [])
        total = sum(v["lifetime"] for v in values)
        pressure = math.ceil(total / ii) + len(inv)
        if pressure > registers[cls]:
            return {
                "kind": "register_pressure",
                "regime": "allocation",
                "ii": ii,
                "bound": ii + 1,
                "reg_class": cls,
                "registers": registers[cls],
                "values": values,
                "invariants": inv,
                "total_lifetime": total,
            }
    return None


# ----------------------------------------------------------------------
# Bank-pairing feasibility bound
# ----------------------------------------------------------------------
def pairing_certificate(loop: Loop, machine: MachineDescription) -> Optional[Certificate]:
    """Vertex-cover bound on the II at which Section 2.9's goal is met.

    The pairer wants ``n_refs - II`` same-cycle pairs with compile-time
    *opposite* banks.  Pairs are a matching in the opposite-bank graph
    (each reference issues once per iteration, so it has at most one
    mate), and any vertex cover bounds the maximum matching; a cover of
    size ``M`` therefore forces ``II >= n_refs - M`` before the goal is
    even expressible.  Report-only: schedules below the bound are legal,
    they just cannot reach the pairing target.
    """
    if not machine.has_banked_memory:
        return None
    mem_ops = sorted(op.index for op in loop.ops if op.is_memory)
    n_refs = len(mem_ops)
    if n_refs < 2:
        return None
    edges: List[Tuple[int, int]] = []
    for i, a in enumerate(mem_ops):
        for b in mem_ops[i + 1 :]:
            rel = relative_bank(loop.ops[a].mem, loop.ops[b].mem, loop.known_parity)
            if rel == 1:
                edges.append((a, b))
    cover: List[int] = []
    remaining = list(edges)
    while remaining:
        counts: Dict[int, int] = {}
        for a, b in remaining:
            counts[a] = counts.get(a, 0) + 1
            counts[b] = counts.get(b, 0) + 1
        pick = max(sorted(counts), key=lambda v: counts[v])
        cover.append(pick)
        remaining = [e for e in remaining if pick not in e]
    bound = n_refs - len(cover)
    if bound <= 1:
        return None
    return {
        "kind": "bank_pairing",
        "regime": "pairing",
        "bound": bound,
        "mem_ops": mem_ops,
        "n_refs": n_refs,
        "cover": sorted(cover),
        "max_known_pairs": len(cover),
    }


# ----------------------------------------------------------------------
# The aggregate: LoopBounds
# ----------------------------------------------------------------------
@dataclass
class LoopBounds:
    """All certified bounds for one loop on one machine."""

    loop: str
    machine: str
    n_ops: int
    res_mii: int
    rec_mii: int
    min_ii: int
    #: smallest II not certified schedule-infeasible
    schedulable_bound: int
    #: smallest II not certified allocation-infeasible (>= schedulable_bound)
    allocatable_bound: int
    #: smallest II at which the bank-pairing goal is satisfiable (1 = no bound)
    pairing_bound: int
    #: climb ceiling used; schedulable_bound == cap + 1 means every II up to
    #: the circuit breaker is certified infeasible
    cap: int
    certificates: List[Certificate] = field(default_factory=list)

    @property
    def refined_bound(self) -> int:
        """The bound safe for pruning the II search: schedulability only."""
        return self.schedulable_bound

    def to_dict(self) -> Dict[str, Any]:
        return {
            "loop": self.loop,
            "machine": self.machine,
            "n_ops": self.n_ops,
            "res_mii": self.res_mii,
            "rec_mii": self.rec_mii,
            "min_ii": self.min_ii,
            "schedulable_bound": self.schedulable_bound,
            "allocatable_bound": self.allocatable_bound,
            "pairing_bound": self.pairing_bound,
            "cap": self.cap,
            "certificates": self.certificates,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "LoopBounds":
        return cls(**{k: payload[k] for k in cls.__dataclass_fields__ if k in payload})


def compute_bounds(
    loop: Loop, machine: MachineDescription, cap: Optional[int] = None
) -> LoopBounds:
    """Derive every certified bound for ``loop`` on ``machine``.

    ``cap`` limits the infeasibility climb (default MaxII, the drivers'
    circuit breaker :func:`~repro.core.minii.max_ii`); a
    ``schedulable_bound`` of ``cap + 1``
    certifies the loop unschedulable under the breaker.
    """
    res = res_mii(loop, machine)
    rec = rec_mii(loop)
    mii = max(res, rec)
    cap = max_ii(loop, machine) if cap is None else cap
    certificates: List[Certificate] = []

    res_cert = resource_certificate(loop, machine)
    certificates.append(res_cert)
    rec_cert = recurrence_certificate(loop, rec)
    if rec_cert is not None:
        certificates.append(rec_cert)
    base = max(res_cert["bound"], rec_cert["bound"] if rec_cert else 1, 1)

    bound = base
    while bound <= cap:
        cert = prove_ii_infeasible(loop, machine, bound)
        if cert is None:
            break
        certificates.append(cert)
        bound += 1
    schedulable = bound

    alloc = schedulable
    while alloc <= cap:
        cert = prove_alloc_infeasible(loop, machine, alloc)
        if cert is None:
            break
        certificates.append(cert)
        alloc += 1

    pair_cert = pairing_certificate(loop, machine)
    pairing = 1
    if pair_cert is not None:
        certificates.append(pair_cert)
        pairing = pair_cert["bound"]

    return LoopBounds(
        loop=loop.name,
        machine=machine.name,
        n_ops=loop.n_ops,
        res_mii=res,
        rec_mii=rec,
        min_ii=mii,
        schedulable_bound=schedulable,
        allocatable_bound=alloc,
        pairing_bound=pairing,
        cap=cap,
        certificates=certificates,
    )


def schedulable_bound(
    loop: Loop,
    machine: MachineDescription,
    cap: Optional[int] = None,
    base: Optional[int] = None,
) -> int:
    """Fast entry for the II search: the certified schedulability bound.

    Skips certificate assembly for the base bounds (``base`` defaults to
    MinII, which the driver has already computed) and climbs with per-II
    infeasibility proofs only.  Safe for pruning: every II below the
    returned value is certified to admit no legal schedule of this exact
    loop body.
    """
    if base is None:
        base = max(res_mii(loop, machine), rec_mii(loop))
    if cap is None:
        cap = max_ii(loop, machine)
    bound = max(base, 1)
    while bound <= cap and prove_ii_infeasible(loop, machine, bound) is not None:
        bound += 1
    return bound
