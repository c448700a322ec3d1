"""A pure-python CP backend: propagate windows, filter slots, search.

The classic constraint-programming reading of modulo scheduling (surveyed
in Castañeda Lozano & Schulte, arXiv 1409.7628): each operation has an
integer issue-time variable over its ASAP/ALAP window, the dependence
arcs are difference constraints (bounds-consistent via longest-path
propagation), and the modulo reservation tables are a global resource
constraint filtered per modulo slot.  Search is chronological DFS with a
deterministic static order, so — like the repo's other schedulers — the
same inputs yield the same answer on any machine, and a *node* budget
(not the wall clock) is what bounds reproducible runs.

The resource model is the packed modulo reservation table the SGI
branch-and-bound uses (:class:`~repro.machine.resources.PackedModuloReservationTable`):
each op's reservation is lowered once per search (cached per uses,
machine and II), and "does this op still have a live slot in
``[lo, hi]``?" is one blocked mask aligned to the window.  The resource
lookahead is incremental: every op keeps one *witness*, a live issue
cycle, and a placement rechecks only the ops whose witness it can have
killed — ops whose window the arc pass shrank past it, ops whose witness
needs a slot that just became full, ops whose fit reads per-slot counts
(a multi-unit need) and ops without a witness yet.  Undo keeps every
witness live, since windows only widen and occupancy only drops on the
way back.  Answers, witnesses, node counts and the conflict/propagation
tallies are those of a lookahead that rescans every unfixed op.

Soundness contract (what the agreement oracle leans on):

* ``sat`` answers carry a witness that satisfies every window, arc and
  modulo resource row (checked independently by the caller);
* ``unsat`` is returned only when the search exhausted the full window
  space at this horizon — never when a budget stopped it;
* budget exhaustion (nodes or the wall-clock backstop) is ``unknown``.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from ..machine.resources import PackedModuloReservationTable, blocked_slots, lower_uses
from .answer import SAT, UNKNOWN, UNSAT, BackendAnswer
from .formulation import ModuloFormulation

#: How many search nodes between wall-clock checks: the node budget is the
#: deterministic limit, the clock only a backstop against pathological
#: propagation cost per node.
_CLOCK_STRIDE = 256


class _Search:
    """One DFS over a formulation; state is trailed for O(1) undo."""

    def __init__(self, formulation: ModuloFormulation, order: Sequence[int]):
        self.n = formulation.n_ops
        self.ii = formulation.ii
        self.order = list(order)
        self.lo = [w[0] for w in formulation.windows]
        self.hi = [w[1] for w in formulation.windows]
        self.fixed = [False] * self.n
        # Difference arcs grouped by endpoint for incremental propagation.
        self.out_arcs: List[List[Tuple[int, int]]] = [[] for _ in range(self.n)]
        self.in_arcs: List[List[Tuple[int, int]]] = [[] for _ in range(self.n)]
        for arc in formulation.dep_arcs():
            w = arc.weight(self.ii)
            self.out_arcs[arc.src].append((arc.dst, w))
            self.in_arcs[arc.dst].append((arc.src, w))
        # Modulo reservation table of the currently fixed ops, and every
        # op's reservation lowered against it once.
        self.mrt = PackedModuloReservationTable(self.ii, formulation.availability)
        index = self.mrt.index
        self.lts = [lower_uses(tuple(uses), index, self.ii) for uses in formulation.op_uses]
        # Ops whose fit reads per-slot counts (a multi-unit need), not only
        # full bits: a placement that fills no slot can still shut them out.
        self.count_ops = [
            op for op, lt in enumerate(self.lts) if lt.mask_runs is None and not lt.impossible
        ]
        # Per resource, the (op, slot offset, run-length mask) of every run
        # an all-unit op holds on it: which witnesses a newly full slot hits.
        self.rid_runs: List[List[Tuple[int, int, int]]] = [[] for _ in range(index.n)]
        for op, lt in enumerate(self.lts):
            for off, rid, length in lt.mask_runs or ():
                self.rid_runs[rid].append((op, off, (1 << length) - 1))
        # One live issue cycle per op, valid whenever the lookahead last
        # passed (-1: none found yet).
        self.witness = [-1] * self.n
        self.unwitnessed = set(range(self.n))
        self.nodes = 0
        self.propagations = 0
        self.conflicts = 0

    # -- modulo resource filtering ------------------------------------
    def _free_slots(self, op: int) -> Optional[int]:
        """Bitmask of the modulo slots at which ``op`` fits the partial MRT,
        or None when its fit reads counts and must be probed per cycle."""
        lt = self.lts[op]
        if lt.mask_runs is None and not lt.impossible:
            return None
        mrt = self.mrt
        wrap = (1 << self.ii) - 1
        return ~blocked_slots(lt, self.ii, mrt.full, mrt.counts, mrt.index.avail) & wrap

    def _has_live_slot(self, op: int) -> bool:
        """Does any value in ``op``'s current bounds fit the partial MRT?

        Bounds intervals are contiguous, so only ``min(width, ii)``
        residues need probing — beyond one full period the slots repeat.
        The first live cycle becomes the op's witness.
        """
        lo, hi, ii = self.lo[op], self.hi[op], self.ii
        span = min(hi - lo + 1, ii)
        free = self._free_slots(op)
        if free is None:
            lt, fits = self.lts[op], self.mrt.fits_lowered
            t = next((t for t in range(lo, lo + span) if fits(lt, t)), -1)
            if t < 0:
                return False
        else:
            r = lo % ii
            # Bit p of the aligned mask is cycle lo + p.
            aligned = ((free >> r) | (free << (ii - r))) & ((1 << span) - 1)
            if not aligned:
                return False
            t = lo + (aligned & -aligned).bit_length() - 1
        if self.witness[op] < 0:
            self.unwitnessed.discard(op)
        self.witness[op] = t
        return True

    # -- bounds propagation -------------------------------------------
    def _propagate(
        self, seed: int, trail: List[Tuple[int, int, int]], filled: List[Tuple[int, int]]
    ) -> bool:
        """Bounds-consistency fixpoint after tightening op ``seed``.

        Difference constraints only ever *raise* ``lo`` and *lower* ``hi``,
        so a worklist pass terminates; every change is trailed for undo.
        Returns False on a domain wipeout or an unfixed op left without a
        live MRT slot (dead end).  ``filled`` lists ``(resource_id,
        newly_full_mask)`` for the slots the seeding placement filled.
        """
        lo, hi, out_arcs, in_arcs = self.lo, self.hi, self.out_arcs, self.in_arcs
        work = [seed]
        while work:
            src = work.pop()
            self.propagations += 1
            for dst, w in out_arcs[src]:
                floor = lo[src] + w
                if floor > lo[dst]:
                    trail.append((dst, lo[dst], hi[dst]))
                    lo[dst] = floor
                    if floor > hi[dst]:
                        return False
                    work.append(dst)
            for dst, w in in_arcs[src]:
                ceil = hi[src] - w
                if ceil < hi[dst]:
                    trail.append((dst, lo[dst], hi[dst]))
                    hi[dst] = ceil
                    if lo[dst] > ceil:
                        return False
                    work.append(dst)
        # Modulo-resource lookahead: every unfixed op must retain at least
        # one issue cycle whose reservation demand still fits the MRT.  A
        # witness stays live unless its cycle left the window (a trailed
        # op), a slot it needs just filled, or its fit reads counts; only
        # those ops, and ops without a witness yet, are rechecked.
        fixed, live, witness = self.fixed, self._has_live_slot, self.witness
        for k in range(1, len(trail)):
            op = trail[k][0]
            if not lo[op] <= witness[op] <= hi[op] and not fixed[op] and not live(op):
                return False
        ii = self.ii
        for rid, newly_full in filled:
            for op, off, run in self.rid_runs[rid]:
                w = witness[op]
                if w < 0 or fixed[op]:
                    continue
                x = (w + off) % ii
                if ((newly_full >> x) | (newly_full << (ii - x))) & run and not live(op):
                    return False
        for op in self.count_ops:
            if not fixed[op] and not live(op):
                return False
        for op in list(self.unwitnessed):
            if not fixed[op] and not live(op):
                return False
        return True

    def _undo(self, trail: List[Tuple[int, int, int]]) -> None:
        """Restore the trailed windows.  Every witness stays live: windows
        only widen and occupancy only drops on the way back."""
        while trail:
            op, lo, hi = trail.pop()
            self.lo[op] = lo
            self.hi[op] = hi

    # -- search --------------------------------------------------------
    def run(self, max_nodes: int, deadline: Optional[float]) -> BackendAnswer:
        start = time.perf_counter()
        status = self._dfs(0, max_nodes, deadline, start)
        seconds = time.perf_counter() - start
        if status == SAT:
            times = {op: self.lo[op] for op in range(self.n)}
            return BackendAnswer(
                backend="cp", answer=SAT, times=times,
                seconds=seconds, nodes=self.nodes,
            )
        detail = (
            f"{self.conflicts} conflicts, {self.propagations} propagations"
        )
        return BackendAnswer(
            backend="cp", answer=status, seconds=seconds,
            nodes=self.nodes, detail=detail,
        )

    def _dfs(self, depth: int, max_nodes: int, deadline: Optional[float], start: float) -> str:
        if depth == len(self.order):
            return SAT
        op = self.order[depth]
        lt, mrt, ii = self.lts[op], self.mrt, self.ii
        full, rids = mrt.full, lt.rids
        # Occupancy is the same at every value tried here (each is undone).
        free = self._free_slots(op)
        for t in range(self.lo[op], self.hi[op] + 1):
            self.nodes += 1
            if self.nodes >= max_nodes or (
                deadline is not None
                and self.nodes % _CLOCK_STRIDE == 0
                and time.perf_counter() - start >= deadline
            ):
                return UNKNOWN
            if free is None:
                if not mrt.fits_lowered(lt, t):
                    continue
            elif not (free >> (t % ii)) & 1:
                continue
            trail: List[Tuple[int, int, int]] = [(op, self.lo[op], self.hi[op])]
            self.lo[op] = self.hi[op] = t
            self.fixed[op] = True
            before = [full[rid] for rid in rids]
            mrt.place_lowered(lt, t)
            filled = [
                (rid, full[rid] & ~held) for rid, held in zip(rids, before) if full[rid] != held
            ]
            if self._propagate(op, trail, filled):
                status = self._dfs(depth + 1, max_nodes, deadline, start)
                if status == SAT:
                    return SAT  # keep the trail: self.lo now holds the witness
            else:
                self.conflicts += 1
                status = UNSAT
            mrt.remove_lowered(lt, t)
            self.fixed[op] = False
            self._undo(trail)
            if status == UNKNOWN:
                return UNKNOWN
        return UNSAT


def default_order(formulation: ModuloFormulation) -> List[int]:
    """Static variable order: tightest window first, index as tie-break.

    Deterministic by construction (no hashing, no randomness), and a good
    proxy for the fail-first principle: critical-recurrence ops have the
    narrowest windows and get decided before the slack ones.
    """
    return sorted(
        range(formulation.n_ops),
        key=lambda op: (
            formulation.windows[op][1] - formulation.windows[op][0],
            op,
        ),
    )


def solve_cp(
    formulation: ModuloFormulation,
    time_limit: Optional[float] = None,
    max_nodes: int = 200_000,
    order: Optional[Sequence[int]] = None,
) -> BackendAnswer:
    """Answer one formulation with the CP search.

    ``order`` overrides the static variable order (the portfolio driver
    passes nothing — the built-in fail-first order is already the
    deterministic choice); ``max_nodes`` is the reproducible budget and
    ``time_limit`` the wall-clock backstop.
    """
    if formulation.infeasible:
        return BackendAnswer(
            backend="cp", answer=UNSAT, detail=formulation.infeasible_reason
        )
    if formulation.n_ops == 0:
        return BackendAnswer(backend="cp", answer=SAT, times={})
    search = _Search(formulation, order or default_order(formulation))
    return search.run(max_nodes=max_nodes, deadline=time_limit)
