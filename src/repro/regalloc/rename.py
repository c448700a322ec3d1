"""Modulo renaming (modulo variable expansion) and live-range construction.

The R8000 has no rotating register files, so the MIPSpro pipeliner borrows
Lam's *modulo renaming* (Section 2.6): if a value's lifetime exceeds II,
successive iterations' instances would clobber each other in a single
register, so the kernel is replicated ``kmin = max_v ceil(lifetime_v / II)``
times and each value gets one register per replica.

Live ranges are cyclic intervals on the unrolled kernel of ``U = kmin * II``
cycles; two ranges of the same register class interfere when their cyclic
intervals overlap.  Loop invariants are live for the whole kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..ir.ddg import Dependence, DepKind
from ..ir.loop import Loop
from ..ir.operations import OpClass, RegClass, result_reg_class

if TYPE_CHECKING:  # repro.core imports this package; annotations only
    from ..core.sched import Schedule


@dataclass
class LiveRange:
    """One cyclic live interval on the unrolled kernel."""

    name: str  # renamed register, e.g. "v7@2"
    value: str  # the original virtual register
    reg_class: RegClass
    start: int  # cycle in [0, U)
    length: int  # cycles; U for invariants
    refs: int  # definition + uses, for the spill ratio of Section 2.8
    span: int  # the value's un-renamed lifetime in cycles
    is_invariant: bool = False
    carried: bool = False  # has a loop-carried use (not spillable simply)

    @property
    def spill_ratio(self) -> float:
        """Cycles spanned per reference: the spill priority of Section 2.8."""
        return self.span / max(self.refs, 1)

    def overlaps(self, other: "LiveRange", period: int) -> bool:
        """Cyclic interval overlap on a kernel of ``period`` cycles."""
        if self.length >= period or other.length >= period:
            return True
        return ((other.start - self.start) % period) < self.length or (
            (self.start - other.start) % period
        ) < other.length


@dataclass
class RenamedKernel:
    """The result of modulo renaming a schedule."""

    schedule: Schedule
    kmin: int  # kernel replication (unroll) factor
    ranges: List[LiveRange]
    lifetimes: Dict[str, int]  # original value -> lifetime in cycles

    @property
    def period(self) -> int:
        return self.kmin * self.schedule.ii


def value_reg_class(loop: Loop, value: str) -> RegClass:
    """Register class of a virtual register.

    Values defined in the loop take the class of their defining operation's
    result; live-in values are integer only if used exclusively by integer
    operations (address arithmetic), floating-point otherwise.
    """
    for op in loop.ops:
        if value in op.dests:
            return result_reg_class(op.opclass)
    int_classes = (OpClass.IALU, OpClass.IMUL, OpClass.BRANCH)
    users = [op for op in loop.ops if value in op.srcs]
    if users and all(op.opclass in int_classes for op in users):
        return RegClass.INT
    return RegClass.FP


def rename_kernel(schedule: Schedule) -> RenamedKernel:
    """Compute the unroll factor and all cyclic live ranges for a schedule."""
    loop = schedule.loop
    ii = schedule.ii

    lifetimes: Dict[str, int] = {}
    refs: Dict[str, int] = {}
    carried: Dict[str, bool] = {}
    defs = loop.defs_of()
    uses: Dict[Tuple[int, str], List[Dependence]] = {}  # (def op, value) -> its flow arcs
    for arc in loop.ddg.arcs:
        if arc.kind is DepKind.FLOW:
            uses.setdefault((arc.src, arc.value), []).append(arc)
    for value, d in defs.items():
        end: Optional[int] = None
        count = 1
        has_carried = False
        for arc in uses.get((d, value), ()):
            use_time = schedule.time(arc.dst) + ii * arc.omega
            end = use_time if end is None else max(end, use_time)
            count += 1
            if arc.omega > 0:
                has_carried = True
        start = schedule.time(d)
        if end is None:
            end = start + 1  # dead in the kernel (result only needed at exit)
        lifetimes[value] = max(end - start, 1)
        refs[value] = count
        carried[value] = has_carried

    kmin = 1
    for value, life in lifetimes.items():
        kmin = max(kmin, math.ceil(life / ii))
    period = kmin * ii

    ranges: List[LiveRange] = []
    for value, d in defs.items():
        life = lifetimes[value]
        cls = result_reg_class(loop.ops[d].opclass)  # single assignment: d is the def
        for r in range(kmin):
            ranges.append(
                LiveRange(
                    name=f"{value}@{r}",
                    value=value,
                    reg_class=cls,
                    start=(schedule.time(d) + r * ii) % period,
                    length=life,
                    refs=refs[value],
                    span=life,
                    carried=carried[value],
                )
            )
    for value in sorted(loop.live_in):
        if value in defs:
            continue  # recurrences: the in-loop definition owns the register
        used = sum(1 for op in loop.ops if value in op.srcs)
        if not used:
            continue
        ranges.append(
            LiveRange(
                name=f"{value}@in",
                value=value,
                reg_class=value_reg_class(loop, value),
                start=0,
                length=period,
                refs=used,
                span=period,
                is_invariant=True,
            )
        )
    return RenamedKernel(schedule=schedule, kmin=kmin, ranges=ranges, lifetimes=lifetimes)
