"""Independent register-allocation verifier (rules REG001-REG004).

Rebuilds every cyclic live range from the schedule and the flow arcs —
without calling :mod:`repro.regalloc.rename` — and proves the colouring
interference-free and within the register files:

* a value defined at ``t(d)`` whose furthest use (over flow arcs, omega
  included) is at ``t(u) + omega * II`` lives ``max(end - start, 1)``
  cycles; the unroll factor must cover ``ceil(lifetime / II)`` (REG004);
* each of the ``kmin`` renamed replicas occupies the cyclic interval
  ``[(start + r*II) mod U, +lifetime)`` on the ``U = kmin * II`` cycle
  unrolled kernel; loop invariants are live for all of ``U``;
* every rebuilt range must have a physical register (REG001) inside its
  file (REG003), and no two cyclically overlapping ranges of the same
  file may share one (REG002).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from ..ir.ddg import DepKind
from ..ir.loop import Loop
from ..ir.operations import RegClass
from ..machine.descriptions import MachineDescription
from .diagnostics import Report, Severity


def _lifetimes(loop: Loop, ii: int, times: Mapping[int, int]) -> Dict[str, int]:
    """Value -> lifetime in cycles, straight from flow arcs and issue times."""
    defs: Dict[str, int] = {}
    for op in loop.ops:
        for d in op.dests:
            defs[d] = op.index
    # Furthest use of each value over its definer's flow arcs, in one pass.
    ends: Dict[str, int] = {}
    for arc in loop.ddg.arcs:
        if arc.kind is not DepKind.FLOW or arc.dst not in times:
            continue
        if defs.get(arc.value, -1) != arc.src:
            continue
        use = times[arc.dst] + ii * arc.omega
        end = ends.get(arc.value)
        if end is None or use > end:
            ends[arc.value] = use
    lifetimes: Dict[str, int] = {}
    for value, d in defs.items():
        if d not in times:
            continue  # schedule coverage problems are SCHED003's job
        start = times[d]
        lifetimes[value] = max(ends.get(value, start + 1) - start, 1)
    return lifetimes


def check_allocation(
    loop: Loop,
    machine: MachineDescription,
    ii: int,
    times: Mapping[int, int],
    allocation,
) -> Report:
    """Verify an :class:`~repro.regalloc.coloring.AllocationResult`."""
    report = Report()
    name = loop.name
    if not getattr(allocation, "success", False):
        return report  # failed allocations carry no colouring to verify

    lifetimes = _lifetimes(loop, ii, times)
    kmin_required = 1
    worst_value = ""
    for value, life in lifetimes.items():
        need = max(1, -(-life // ii))  # ceil
        if need > kmin_required:
            kmin_required, worst_value = need, value
    kmin = allocation.kmin
    if kmin < kmin_required:
        report.add(
            "REG004",
            Severity.ERROR,
            f"kmin={kmin} but {worst_value!r} lives "
            f"{lifetimes[worst_value]} cycles, needing {kmin_required} replicas",
            loop=name,
            hint="successive iterations would clobber the value in one register",
        )
        kmin = kmin_required  # rebuild ranges at the sound factor anyway
    period = kmin * ii

    # Rebuild the renamed ranges, as (name, value, start, length).  Names
    # follow the renaming contract ("value@replica", "value@in") — that
    # contract *is* the artifact's interface, so a missing or differently
    # named range is a finding.
    ranges: List[Tuple[str, str, int, int]] = []
    defs = {d: op.index for op in loop.ops for d in op.dests}
    for value, life in lifetimes.items():
        start = times[defs[value]]
        ranges += [(f"{value}@{r}", value, (start + r * ii) % period, life) for r in range(kmin)]
    read = {src for op in loop.ops for src in op.srcs}
    for value in sorted(loop.live_in):
        if value in defs:
            continue  # recurrences: the in-loop definition owns the register
        if value in read:
            ranges.append((f"{value}@in", value, 0, period))

    # Range name -> (file, register, file size); an integer entry wins.
    assignment: Dict[str, Tuple[str, int, int]] = {}
    for rng_name, color in getattr(allocation, "fp_assignment", {}).items():
        assignment[rng_name] = (RegClass.FP.value, color, machine.fp_regs)
    for rng_name, color in getattr(allocation, "int_assignment", {}).items():
        assignment[rng_name] = (RegClass.INT.value, color, machine.int_regs)

    by_reg: Dict[Tuple[str, int], List[Tuple[str, str, int, int]]] = {}
    for rng in ranges:
        got = assignment.get(rng[0])
        if got is None:
            rng_name, value, start, length = rng
            report.add(
                "REG001",
                Severity.ERROR,
                f"live range {rng_name!r} (value {value!r}) has no register",
                loop=name,
                where=f"interval [{start}, +{length}) on period {period}",
                hint="renaming dropped a replica, or the colouring lost a node",
            )
            continue
        cls, color, size = got
        if not (0 <= color < size):
            report.add(
                "REG003",
                Severity.ERROR,
                f"live range {rng[0]!r} assigned register {color} outside the "
                f"{cls} file of {size}",
                loop=name,
            )
            continue
        group = by_reg.get((cls, color))
        if group is None:
            by_reg[cls, color] = [rng]
        else:
            group.append(rng)

    # Interference: same file, same colour, cyclically overlapping.
    for (cls, color), group in sorted(by_reg.items()):
        for i, (a_name, a_value, a_start, a_length) in enumerate(group):
            for b_name, b_value, b_start, b_length in group[i + 1 :]:
                if a_value == b_value and a_name == b_name:
                    continue
                if (
                    a_length >= period
                    or b_length >= period
                    or (b_start - a_start) % period < a_length
                    or (a_start - b_start) % period < b_length
                ):
                    report.add(
                        "REG002",
                        Severity.ERROR,
                        f"{a_name!r} [{a_start}, +{a_length}) and {b_name!r} "
                        f"[{b_start}, +{b_length}) overlap on period {period} "
                        f"but share {cls} register {color}",
                        loop=name,
                        where=f"{cls}{color}",
                        hint="the interference graph missed an edge or the "
                        "colouring ignored one",
                    )
    return report
