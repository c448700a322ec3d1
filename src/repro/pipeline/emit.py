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
from typing import Dict, List, Tuple

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


def _register_name(colors: Dict[str, Tuple[str, int]], key: str) -> str:
    cls, color = colors[key]
    prefix = "$f" if cls == "fp" else "$r"
    return f"{prefix}{color}"


def _operand(
    loop: Loop,
    colors: Dict[str, Tuple[str, int]],
    defs: Dict[str, int],
    value: str,
    iteration: int,
    kmin: int,
) -> str:
    if value not in defs:
        return _register_name(colors, f"{value}@in")
    return _register_name(colors, f"{value}@{iteration % kmin}")


def _format_op(
    loop: Loop,
    colors: Dict[str, Tuple[str, int]],
    defs: Dict[str, int],
    omegas: Dict[int, List[int]],
    op_index: int,
    replica: int,
    kmin: int,
) -> str:
    """An instance's line up to its iteration offset.

    Registers depend on the iteration only modulo ``kmin``, so one text
    serves every instance of ``op_index`` in kernel copy ``replica``.
    """
    op = loop.ops[op_index]
    srcs = [
        _operand(loop, colors, defs, src, replica - omegas[op_index][pos], kmin)
        for pos, src in enumerate(op.srcs)
    ]
    dest = (
        _operand(loop, colors, defs, op.dest, replica, kmin) + " <- "
        if op.dests
        else ""
    )
    mem = ""
    if op.mem is not None:
        off = "?" if op.mem.offset is None else str(op.mem.offset)
        mem = f" [{op.mem.base}+{off}+i*{op.mem.stride}]"
    body = f"{op.opcode} {dest}{', '.join(srcs)}".rstrip(" ,")
    return f"    {body}{mem}  ; op{op_index} iter{{i"


def emit_pipelined_code(schedule: Schedule, allocation: AllocationResult) -> PipelinedCode:
    """Emit prologue, unrolled kernel, and epilogue for a schedule."""
    loop = schedule.loop
    ii = schedule.ii
    kmin = allocation.kmin
    stages = schedule.n_stages
    defs = loop.defs_of()
    from ..sim.functional import _use_omegas

    omegas = _use_omegas(loop)
    colors: Dict[str, Tuple[str, int]] = {}
    for name, color in allocation.fp_assignment.items():
        colors[name] = ("fp", color)
    for name, color in allocation.int_assignment.items():
        colors[name] = ("int", color)

    texts: Dict[Tuple[int, int], str] = {}  # (op, iteration % kmin) -> line head

    def bundle(instances: List[Tuple[int, int]], cycle_label: str) -> List[str]:
        lines = [f"  {cycle_label}:"]
        for op_index, iteration in sorted(instances):
            key = (op_index, iteration % kmin)
            text = texts.get(key)
            if text is None:
                text = texts[key] = _format_op(loop, colors, defs, omegas, *key, kmin)
            lines.append(f"{text}{iteration:+d}}}")
        return lines

    # Prologue: cycles before the steady state.  The steady state begins
    # once iteration (stages-1) starts, i.e. at time (stages-1)*II.
    prologue: List[str] = []
    steady_start = (stages - 1) * ii
    events: Dict[int, List[Tuple[int, int]]] = {}
    for op in loop.ops:
        # Enough iterations to cover the fill plus one full unrolled kernel.
        for n in range(stages + kmin):
            events.setdefault(schedule.time(op.index) + n * ii, []).append((op.index, n))
    for cycle in range(steady_start):
        instances = events.get(cycle, [])
        if instances:
            prologue.extend(bundle(instances, f"fill+{cycle}"))

    # Kernel: kmin*II cycles of the steady state, expressed with iteration
    # offsets relative to the oldest in-flight iteration.
    kernel: List[str] = []
    for u in range(kmin):
        for slot in range(ii):
            cycle = steady_start + u * ii + slot
            instances = events.get(cycle, [])
            shown = [
                (op_index, n)
                for op_index, n in instances
            ]
            if shown:
                kernel.extend(bundle(shown, f"kernel[{u}]+{slot}"))

    # Epilogue: drain — the final (stages-1) iterations' leftover stages.
    epilogue: List[str] = []
    drain_events: Dict[int, List[Tuple[int, int]]] = {}
    total = stages - 1  # iterations still in flight when issue stops
    for op in loop.ops:
        for n in range(total):
            t = schedule.time(op.index) + n * ii
            if t >= steady_start:
                drain_events.setdefault(t - steady_start, []).append((op.index, n))
    for cycle in sorted(drain_events):
        epilogue.extend(bundle(drain_events[cycle], f"drain+{cycle}"))

    return PipelinedCode(
        prologue=prologue,
        kernel=kernel,
        epilogue=epilogue,
        kmin=kmin,
        n_stages=stages,
    )
