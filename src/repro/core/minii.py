"""Lower bounds on the initiation interval: ResMII, RecMII, MinII.

MinII is the "loose lower bound based on resources required and any
dependence cycles in the loop body" [RaGl81] that anchors the II search of
Section 2.3 and serves as the paper's yardstick for schedule quality
("scheduled at their MinII").
"""

from __future__ import annotations

import math
from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription


def res_mii(loop: Loop, machine: MachineDescription) -> int:
    """Resource-constrained lower bound.

    For each resource, total units consumed by one iteration divided by the
    units available per cycle, rounded up; the maximum over resources.

    Memoized on ``loop.ddg`` per machine, like :func:`rec_mii`: the runner,
    the certified bound and the II walk all ask it of the same body.
    """
    memo = getattr(loop.ddg, "_res_mii_memo", None)
    if memo is None:
        memo = loop.ddg._res_mii_memo = {}  # type: ignore[attr-defined]
    hit = memo.get(id(machine))
    if hit is not None and hit[0] is machine:
        return hit[1]
    bound = _count_res_mii(loop, machine)
    memo[id(machine)] = (machine, bound)
    return bound


def _count_res_mii(loop: Loop, machine: MachineDescription) -> int:
    demand: dict = {}
    for op in loop.ops:
        for resource, count in machine.table(op.opclass).totals().items():
            demand[resource] = demand.get(resource, 0) + count
    bound = 1
    for resource, total in demand.items():
        avail = machine.availability.get(resource)
        if avail is None or avail <= 0:
            raise ValueError(f"machine {machine.name} lacks resource {resource!r}")
        bound = max(bound, math.ceil(total / avail))
    return bound


def _has_positive_cycle(arcs, n_ops: int, passes: int, ii: int) -> bool:
    """Is there a dependence cycle with positive total ``latency - ii*omega``?

    Detected with a Bellman-Ford-style longest-path relaxation over
    ``arcs`` (``src, dst, latency, omega``): if after ``passes`` full
    passes a distance still improves, a positive cycle exists.  Any
    ``passes`` above the arc count of the longest simple path is exact.
    """
    dist = [0] * n_ops
    weighted = [(src, dst, lat - ii * omega) for src, dst, lat, omega in arcs]
    for _ in range(passes):
        changed = False
        for src, dst, w in weighted:
            if dist[src] + w > dist[dst]:
                dist[dst] = dist[src] + w
                changed = True
        if not changed:
            return False
    return True


def rec_mii(loop: Loop) -> int:
    """Recurrence-constrained lower bound.

    The smallest integer II for which no dependence cycle requires
    ``t(op) - t(op) > 0``; equivalently the ceiling of the maximum cycle
    ratio ``sum(latency) / sum(omega)``.  Found by binary search with a
    positive-cycle oracle.

    The answer depends only on the dependence graph, which is immutable
    once built, so it is memoized on ``loop.ddg``: the driver, the
    certified bounds and the runner ask it of the same body.
    """
    rec = getattr(loop.ddg, "_rec_mii_memo", None)
    if rec is None:
        rec = loop.ddg._rec_mii_memo = _search_rec_mii(loop)  # type: ignore[attr-defined]
    return rec


def _search_rec_mii(loop: Loop) -> int:
    """Binary-search RecMII over the arcs a dependence cycle can use.

    A cycle never leaves its strongly connected component, so only arcs
    whose two ends share an SCC are relaxed, for as many passes as the
    largest SCC has members; their latency sum is an II at which no
    carried cycle is positive.
    """
    ddg = loop.ddg
    arcs = [
        (a.src, a.dst, a.latency, a.omega)
        for a in ddg.arcs
        if ddg.scc_id(a.src) == ddg.scc_id(a.dst)
    ]
    if not arcs:
        return 1
    n = loop.n_ops
    passes = max(len(ddg.scc_members(src)) for src, _, _, _ in arcs)
    if not _has_positive_cycle(arcs, n, passes, 1):
        return 1
    hi = max(1, sum(max(lat, 0) for _, _, lat, _ in arcs))
    lo = 1  # infeasible
    if _has_positive_cycle(arcs, n, passes, hi):
        raise ValueError(
            f"loop {loop.name!r} has a dependence cycle with no carried arc; cannot pipeline"
        )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _has_positive_cycle(arcs, n, passes, mid):
            lo = mid
        else:
            hi = mid
    return hi


def min_ii(loop: Loop, machine: MachineDescription) -> int:
    """MinII = max(ResMII, RecMII)."""
    return max(res_mii(loop, machine), rec_mii(loop))


#: The compile-speed circuit breaker of Section 2.3: no pipeliner tries an
#: II above ``MAX_II_FACTOR * MinII``, and the certified bound climb stops
#: there too.
MAX_II_FACTOR = 2


def max_ii(loop: Loop, machine: MachineDescription) -> int:
    """MaxII = 2 * MinII, the one II ceiling of every pipeliner (§2.3)."""
    return MAX_II_FACTOR * min_ii(loop, machine)
