"""Independent modulo-schedule legality checker (rules SCHED001-SCHED004).

This re-derives every constraint a modulo schedule must satisfy directly
from the dependence graph and the machine's reservation tables, sharing no
code with the schedulers or with ``Schedule.validate()``:

* dependence arcs impose ``t(dst) - t(src) >= latency - omega * II``;
* resource usage is *aggregated* over all operations per (modulo slot,
  resource) pair and compared against availability afterwards — unlike the
  incremental place-or-complain loop of the production code, this reports
  every contributor to an oversubscribed slot and is order-independent;
* the schedule must cover exactly the loop body's operations;
* II is audited against an independently recomputed MinII = max(ResMII,
  RecMII) lower bound — a "legal" schedule below the bound means either
  the bound or the checker is wrong, and both deserve attention.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Tuple

from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription
from .diagnostics import Report, Severity


def check_schedule(
    loop: Loop,
    machine: MachineDescription,
    ii: int,
    times: Mapping[int, int],
    audit_min_ii: bool = True,
) -> Report:
    """Check one candidate schedule (``op -> issue cycle``) at ``ii``."""
    report = Report()
    name = loop.name
    if ii <= 0:
        report.add(
            "SCHED004",
            Severity.ERROR,
            f"II={ii} is not positive",
            loop=name,
        )
        return report

    present = _check_coverage(loop, times, report)
    _check_dependences(loop, ii, times, present, report)
    _check_resources(loop, machine, ii, times, present, report)
    if audit_min_ii:
        _audit_min_ii(loop, machine, ii, report)
    return report


def _check_coverage(loop: Loop, times: Mapping[int, int], report: Report) -> List[int]:
    """SCHED003: the schedule must assign exactly ops ``0..n_ops-1``."""
    expected = set(range(loop.n_ops))
    got = set(times)
    missing = sorted(expected - got)
    unknown = sorted(got - expected)
    if missing:
        report.add(
            "SCHED003",
            Severity.ERROR,
            f"ops {missing} have no issue cycle",
            loop=loop.name,
            ops=missing,
            hint="a scheduler dropped an operation (eviction without re-placement?)",
        )
    if unknown:
        report.add(
            "SCHED003",
            Severity.ERROR,
            f"schedule assigns unknown op ids {unknown}",
            loop=loop.name,
            hint="the schedule belongs to a different loop body",
        )
    return sorted(expected & got)


def _check_dependences(
    loop: Loop,
    ii: int,
    times: Mapping[int, int],
    present: List[int],
    report: Report,
) -> None:
    """SCHED001: every arc's minimum distance holds at this II."""
    have = set(present)
    for arc in loop.ddg.arcs:
        if arc.src not in have or arc.dst not in have:
            continue  # coverage already reported
        gap = times[arc.dst] - times[arc.src]
        need = arc.latency - ii * arc.omega
        if gap < need:
            report.add(
                "SCHED001",
                Severity.ERROR,
                f"{arc.kind.value} dependence op {arc.src} -> op {arc.dst} "
                f"(latency={arc.latency}, omega={arc.omega}): "
                f"gap {gap} < required {need}",
                loop=loop.name,
                ops=(arc.src, arc.dst),
                where=f"t({arc.src})={times[arc.src]}, t({arc.dst})={times[arc.dst]}, II={ii}",
                hint="move the consumer later or the producer earlier by whole stages",
            )


def _check_resources(
    loop: Loop,
    machine: MachineDescription,
    ii: int,
    times: Mapping[int, int],
    present: List[int],
    report: Report,
) -> None:
    """SCHED002: aggregate per-slot usage must fit availability.

    Aggregation is done over *all* operations before any comparison, so an
    oversubscribed slot reports every contributor — the production MRT
    reports only the ops it failed to place, in placement order.
    """
    usage: Dict[Tuple[int, str], int] = {}
    contributors: Dict[Tuple[int, str], List[int]] = {}
    for op in present:
        try:
            table = machine.table(loop.ops[op].opclass)
        except KeyError:
            report.add(
                "SCHED002",
                Severity.ERROR,
                f"machine {machine.name!r} has no reservation table for "
                f"{loop.ops[op].opclass}",
                loop=loop.name,
                ops=(op,),
            )
            continue
        for use in table.uses:
            slot = (times[op] + use.offset) % ii
            key = (slot, use.resource)
            usage[key] = usage.get(key, 0) + use.count
            ops_here = contributors.setdefault(key, [])
            if op not in ops_here:
                ops_here.append(op)
    for (slot, resource), used in sorted(usage.items()):
        avail = machine.availability.get(resource)
        if avail is None:
            report.add(
                "SCHED002",
                Severity.ERROR,
                f"machine {machine.name!r} has no resource {resource!r}",
                loop=loop.name,
                ops=contributors[(slot, resource)],
                where=f"slot {slot}",
            )
        elif used > avail:
            report.add(
                "SCHED002",
                Severity.ERROR,
                f"resource {resource!r} oversubscribed in modulo slot {slot}: "
                f"{used} used, {avail} available",
                loop=loop.name,
                ops=sorted(contributors[(slot, resource)]),
                where=f"slot {slot}",
                hint="an op (or an unpipelined op colliding with itself) must move slots",
            )


# ----------------------------------------------------------------------
# Independent MinII lower bound (SCHED004)
# ----------------------------------------------------------------------
def _independent_res_mii(loop: Loop, machine: MachineDescription) -> int:
    demand: Dict[str, int] = {}
    for op in loop.ops:
        try:
            table = machine.table(op.opclass)
        except KeyError:
            continue  # reported by _check_resources
        for use in table.uses:
            demand[use.resource] = demand.get(use.resource, 0) + use.count
    bound = 1
    for resource, total in demand.items():
        avail = machine.availability.get(resource, 0)
        if avail > 0:
            bound = max(bound, math.ceil(total / avail))
    return bound


def _positive_cycle_at(loop: Loop, ii: int) -> bool:
    """Does some dependence cycle have positive weight at ``ii``?

    Weights are ``latency - II * omega``; a positive cycle at II means some
    operation would have to issue after itself.  Detected with a longest-
    path relaxation: any improvement after n full passes implies a
    positive cycle.
    """
    n = loop.n_ops
    dist = [0] * n
    weighted = [(a.src, a.dst, a.latency - ii * a.omega) for a in loop.ddg.arcs]
    for _ in range(n):
        changed = False
        for s, d, w in weighted:
            if 0 <= s < n and 0 <= d < n and dist[s] + w > dist[d]:
                dist[d] = dist[s] + w
                changed = True
        if not changed:
            return False
    return True


def _independent_rec_mii(loop: Loop) -> int:
    """Smallest II with no positive-weight dependence cycle.

    The threshold II is found by linear-from-1 then binary search over
    :func:`_positive_cycle_at`.
    """
    arcs = loop.ddg.arcs
    if not arcs:
        return 1
    if not _positive_cycle_at(loop, 1):
        return 1
    hi = max(1, sum(max(a.latency, 0) for a in arcs))
    if _positive_cycle_at(loop, hi):
        return hi + 1  # cycle with no carried arc; any II is infeasible
    lo = 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _positive_cycle_at(loop, mid):
            lo = mid
        else:
            hi = mid
    return hi


def _audit_min_ii(
    loop: Loop, machine: MachineDescription, ii: int, report: Report
) -> None:
    """SCHED004, decided at the schedule's own II.

    ``ii >= RecMII`` exactly when no cycle is positive at ``ii`` (cycle
    weights only fall as II grows), so a schedule at or above ResMII with
    no positive cycle passes on one relaxation; RecMII itself is searched
    only to word a failure.
    """
    res = _independent_res_mii(loop, machine)
    if ii >= res and not _positive_cycle_at(loop, ii):
        return
    rec = _independent_rec_mii(loop)
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
