"""Emission of the final software-pipelined code as an assembly-like listing.

Modulo renaming replicates the kernel ``kmin`` times (Section 2.6): copy
``u`` of the kernel executes, for each operation, the instance belonging to
iteration ``n ≡ u - stage(op) (mod kmin)``, and register operands select
the physical register of the producing iteration's renamed copy.

The emitter exists for inspection and bookkeeping (fill/drain instruction
counts feed the overhead discussion of Section 4.6); the simulators execute
schedules directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.sched import Schedule
from ..ir.loop import Loop
from ..regalloc.coloring import AllocationResult


@dataclass
class PipelinedCode:
    """The emitted loop: textual bundles plus summary counts."""

    prologue: List[str]
    kernel: List[str]
    epilogue: List[str]
    kmin: int
    n_stages: int

    @property
    def fill_instructions(self) -> int:
        return sum(1 for line in self.prologue if not line.startswith("#"))

    @property
    def drain_instructions(self) -> int:
        return sum(1 for line in self.epilogue if not line.startswith("#"))

    def listing(self) -> str:
        parts = ["# prologue (pipeline fill)"]
        parts.extend(self.prologue)
        parts.append(f"# kernel (steady state, unrolled x{self.kmin})")
        parts.extend(self.kernel)
        parts.append("# epilogue (pipeline drain)")
        parts.extend(self.epilogue)
        return "\n".join(parts)


def _line_tail(loop: Loop, op_index: int) -> str:
    """What follows an op's registers on each of its lines, up to the
    iteration offset: its memory reference and its op number."""
    op = loop.ops[op_index]
    mem = ""
    if op.mem is not None:
        off = "?" if op.mem.offset is None else str(op.mem.offset)
        mem = f" [{op.mem.base}+{off}+i*{op.mem.stride}]"
    return f"{mem}  ; op{op_index} iter{{i"


def _format_op(
    loop: Loop,
    registers: Dict[str, str],
    defs: Dict[str, int],
    omegas: Dict[int, List[int]],
    op_index: int,
    replica: int,
    kmin: int,
    tail: str,
) -> str:
    """An instance's line up to its iteration offset.

    Registers depend on the iteration only modulo ``kmin``, so one text
    serves every instance of ``op_index`` in kernel copy ``replica``.
    ``registers`` names each renamed range's physical register; ``tail``
    is the op's :func:`_line_tail`.
    """
    op = loop.ops[op_index]
    srcs = [
        registers[f"{src}@in"]
        if src not in defs
        else registers[f"{src}@{(replica - omegas[op_index][pos]) % kmin}"]
        for pos, src in enumerate(op.srcs)
    ]
    dest = registers[f"{op.dest}@{replica}"] + " <- " if op.dests else ""
    body = f"{op.opcode} {dest}{', '.join(srcs)}".rstrip(" ,")
    return f"    {body}{tail}"


def emit_pipelined_code(schedule: Schedule, allocation: AllocationResult) -> PipelinedCode:
    """Emit prologue, unrolled kernel, and epilogue for a schedule."""
    loop = schedule.loop
    ii = schedule.ii
    kmin = allocation.kmin
    stages = schedule.n_stages
    defs = loop.defs_of()
    from ..sim.functional import _use_omegas

    omegas = _use_omegas(loop)
    registers: Dict[str, str] = {}
    for name, color in allocation.fp_assignment.items():
        registers[name] = f"$f{color}"
    for name, color in allocation.int_assignment.items():
        registers[name] = f"$r{color}"

    # Line heads by op and replica (iteration % kmin), formatted on first
    # use; line tails by iteration.
    heads: List[List[Optional[str]]] = [[None] * kmin for _ in loop.ops]
    op_tails = [_line_tail(loop, op.index) for op in loop.ops]
    tails = [f"{n:+d}}}" for n in range(stages + kmin)]

    # Instance (op, n) issues at cycle t(op) + n*II, so a cycle's instances
    # are the ops of its modulo slot, in op order, each at iteration
    # (cycle - t) / II: no bucket to fill, no bundle to sort.
    by_slot: List[List[Tuple[int, int]]] = [[] for _ in range(ii)]
    for op in loop.ops:
        t = schedule.time(op.index)
        by_slot[t % ii].append((op.index, t))

    def bundle(cycle: int, iterations: int) -> List[str]:
        """The lines of ``cycle``'s instances among iterations 0 .. iterations - 1."""
        lines = []
        for op_index, t in by_slot[cycle % ii]:
            iteration = (cycle - t) // ii
            if 0 <= iteration < iterations:
                replica = iteration % kmin
                head = heads[op_index][replica]
                if head is None:
                    head = heads[op_index][replica] = _format_op(
                        loop, registers, defs, omegas, op_index, replica, kmin, op_tails[op_index]
                    )
                lines.append(head + tails[iteration])
        return lines

    # Prologue and kernel: the cycles before the steady state, which begins
    # once iteration (stages-1) starts, i.e. at time (stages-1)*II, then
    # kmin*II cycles of it, with iteration offsets relative to the oldest
    # in-flight iteration.  Epilogue: drain -- the final (stages-1)
    # iterations' leftover stages, at cycles counted from the end of the
    # steady state.
    steady_start = (stages - 1) * ii
    prologue: List[str] = []
    for cycle in range(steady_start):
        lines = bundle(cycle, stages + kmin)
        if lines:
            prologue.append(f"  fill+{cycle}:")
            prologue += lines
    kernel: List[str] = []
    for u in range(kmin):
        for slot in range(ii):
            lines = bundle(steady_start + u * ii + slot, stages + kmin)
            if lines:
                kernel.append(f"  kernel[{u}]+{slot}:")
                kernel += lines
    epilogue: List[str] = []
    for cycle in range(steady_start):
        lines = bundle(steady_start + cycle, stages - 1)
        if lines:
            epilogue.append(f"  drain+{cycle}:")
            epilogue += lines

    return PipelinedCode(
        prologue=prologue,
        kernel=kernel,
        epilogue=epilogue,
        kmin=kmin,
        n_stages=stages,
    )
