"""Functional simulation: does the pipelined, register-allocated code
compute the same thing as the sequential loop?

Two executions are compared:

* :func:`run_sequential` — the reference semantics: iterations one at a
  time, operations in program order, values kept per (register, iteration).
* :func:`run_pipelined` — the software-pipelined code as it would execute:
  every operation instance ``(op, iteration)`` issues at its scheduled
  cycle ``t(op) + iteration * II``, reads and writes the *physical*
  registers chosen by modulo renaming + colouring, with all of a cycle's
  reads happening before its writes.

If modulo renaming picked too small an unroll factor, or colouring shared
a register between overlapping ranges, the pipelined run clobbers a live
value and the results diverge — this is the end-to-end correctness oracle
for the whole code-generation pipeline.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.sched import Schedule
from ..ir.ddg import DepKind
from ..ir.loop import Loop
from ..ir.operations import OpClass
from ..regalloc.coloring import AllocationResult
from .layout import DataLayout


@dataclass
class ExecutionResult:
    """Observable outcome of running a loop to completion."""

    memory: Dict[int, float]  # addresses written -> final values
    live_out: Dict[str, float]

    def matches(self, other: "ExecutionResult") -> bool:
        return _same_values(self.memory, other.memory) and _same_values(
            self.live_out, other.live_out
        )


def _same_values(a: Dict, b: Dict) -> bool:
    """``a == b``, except that a NaN matches a NaN with the same bit
    pattern: a body that overflows to NaN computes the same bits in both
    executions, yet NaN is unequal to itself.  The ``==`` fast path decides
    every NaN-free result."""
    if a == b:
        return True
    return a.keys() == b.keys() and all(
        x == b[k] or struct.pack("<d", x) == struct.pack("<d", b[k])
        for k, x in a.items()
    )


def _live_in_value(layout: DataLayout, name: str) -> float:
    return layout.live_in_value(name)


def _evaluate(opcode: str, srcs: List[float]) -> float:
    """Evaluate one operation; total functions only, so both executions
    perform bit-identical arithmetic."""
    if opcode in ("fadd", "iadd"):
        return srcs[0] + srcs[1]
    if opcode == "fsub":
        return srcs[0] - srcs[1]
    if opcode in ("fmul", "imul"):
        return srcs[0] * srcs[1]
    if opcode == "fmadd":
        return srcs[0] * srcs[1] + srcs[2]
    if opcode == "fdiv":
        d = srcs[1] if abs(srcs[1]) > 1e-9 else 1.0
        return srcs[0] / d
    if opcode == "fsqrt":
        return math.sqrt(abs(srcs[0]))
    if opcode == "fcmp":
        return 1.0 if srcs[0] < srcs[1] else 0.0
    if opcode == "fmov":
        return srcs[1] if srcs[0] != 0.0 else srcs[2]
    raise ValueError(f"no semantics for opcode {opcode!r}")


def _use_omegas(loop: Loop) -> Dict[int, List[int]]:
    """Per-operation iteration distances, positionally aligned with srcs.

    Values not defined in the loop are invariants (omega irrelevant,
    encoded 0).  When an operation reads the same value at two different
    distances, the distances are assigned to its source positions in
    ascending order.

    Memoized on the loop: a check's two runs and the emitter decode the
    same body.
    """
    memo = getattr(loop, "_use_omegas_memo", None)
    if memo is None:
        memo = loop._use_omegas_memo = _decode_omegas(loop)  # type: ignore[attr-defined]
    return memo


def _decode_omegas(loop: Loop) -> Dict[int, List[int]]:
    defs = loop.defs_of()
    arcs_by_use: Dict[Tuple[int, str], List[int]] = {}
    for arc in loop.ddg.arcs:
        if arc.kind is DepKind.FLOW and arc.value:
            arcs_by_use.setdefault((arc.dst, arc.value), []).append(arc.omega)
    for omegas in arcs_by_use.values():
        omegas.sort()
    result: Dict[int, List[int]] = {}
    for op in loop.ops:
        taken: Dict[str, int] = {}
        row: List[int] = []
        for src in op.srcs:
            if src not in defs:
                row.append(0)
                continue
            omegas = arcs_by_use.get((op.index, src), [0])
            k = taken.get(src, 0)
            row.append(omegas[min(k, len(omegas) - 1)])
            taken[src] = k + 1
        result[op.index] = row
    return result


#: Operation kinds, decoded once per run.
_COMPUTE, _LOAD, _STORE = 0, 1, 2


def _kind(opclass: OpClass) -> int:
    return {OpClass.LOAD: _LOAD, OpClass.STORE: _STORE}.get(opclass, _COMPUTE)


def run_sequential(loop: Loop, layout: DataLayout, trips: int) -> ExecutionResult:
    """Reference execution: iteration at a time, program order."""
    defs = loop.defs_of()
    omegas = _use_omegas(loop)
    invariants = {name: _live_in_value(layout, name) for name in loop.live_in}
    # Each op decoded once: kind, and per source either its invariant value
    # (``None`` omega) or the value's per-iteration history and distance.
    history: Dict[str, List[float]] = {name: [] for name in defs}
    decoded = []
    for op in loop.ops:
        srcs = [
            (None, invariants[src], None)
            if src not in defs
            else (omegas[op.index][pos], invariants.get(src, 0.0), history[src])
            for pos, src in enumerate(op.srcs)
        ]
        kind = _kind(op.opclass)
        dest = None if kind == _STORE else history[op.dest]
        decoded.append((op.index, kind, op.opcode, srcs, dest))
    memory: Dict[int, float] = {}
    written: Dict[int, float] = {}

    for n in range(trips):
        for op_index, kind, opcode, srcs, dest in decoded:
            vals: List[float] = []
            for omega, before, values in srcs:
                if omega is None:
                    vals.append(before)
                    continue
                m = n - omega
                vals.append(before if m < 0 else values[m])
            if kind == _LOAD:
                addr = layout.address(op_index, n)
                result = memory[addr] if addr in memory else layout.initial_value(addr)
            elif kind == _STORE:
                addr = layout.address(op_index, n)
                memory[addr] = vals[0]
                written[addr] = vals[0]
                continue
            else:
                result = _evaluate(opcode, vals)
            dest.append(result)
    live_out = {name: history[name][-1] for name in loop.live_out if trips and name in history}
    return ExecutionResult(memory=written, live_out=live_out)


def run_pipelined(
    schedule: Schedule,
    allocation: AllocationResult,
    layout: DataLayout,
    trips: int,
) -> ExecutionResult:
    """Execute the software-pipelined code on physical registers.

    Instances issue at ``t(op) + n * II``; each cycle performs all reads,
    then all writes (register files and memory behave like hardware with
    write-back at end of cycle).
    """
    loop = schedule.loop
    ii = schedule.ii
    kmin = allocation.kmin
    defs = loop.defs_of()
    omegas = _use_omegas(loop)
    invariants = {name: _live_in_value(layout, name) for name in loop.live_in}

    colors: Dict[str, Tuple[str, int]] = {}
    for name, color in allocation.fp_assignment.items():
        colors[name] = ("fp", color)
    for name, color in allocation.int_assignment.items():
        colors[name] = ("int", color)

    regfile: Dict[Tuple[str, int], float] = {}
    for name in loop.live_in:
        if name in defs:
            continue
        key = colors.get(f"{name}@in")
        if key is not None:
            regfile[key] = invariants[name]

    # Each op decoded once: kind, and per source either the invariant's
    # register (``None`` omega) or its distance, the value before the loop
    # and the register of each replica ``m % kmin``.  A register missing
    # from the allocation reads as the key ``None``, which no write makes.
    replicas: Dict[str, Tuple] = {}
    for name in defs:
        replicas[name] = tuple(colors.get(f"{name}@{r}") for r in range(kmin))
    decoded = []
    for op in loop.ops:
        srcs = [
            (None, None, colors.get(f"{src}@in"))
            if src not in defs
            else (omegas[op.index][pos], invariants.get(src, 0.0), replicas[src])
            for pos, src in enumerate(op.srcs)
        ]
        kind = _kind(op.opclass)
        dest_name, dest = None, None
        if kind != _STORE:
            # Every register the run writes must exist.
            dest_name = op.dest
            dest = tuple(colors[f"{dest_name}@{r}"] for r in range(min(kmin, trips)))
        decoded.append((op.index, kind, op.opcode, srcs, dest, dest_name))

    memory: Dict[int, float] = {}
    written: Dict[int, float] = {}
    last_def_value: Dict[str, float] = {}

    # The ops issuing in a cycle are those of its modulo slot whose
    # iteration ``(cycle - t0) / II`` has started and not ended, in op order.
    times = [schedule.time(op.index) for op in loop.ops]
    by_slot: List[List[Tuple[int, tuple]]] = [[] for _ in range(ii)]
    for op_decoded, t0 in zip(decoded, times):
        by_slot[t0 % ii].append((t0, op_decoded))

    for cycle in range(min(times), max(times) + (trips - 1) * ii + 1):
        reads: List[Tuple[tuple, int, List[float]]] = []
        for t0, op_decoded in by_slot[cycle % ii]:
            n = (cycle - t0) // ii
            if n < 0 or n >= trips:
                continue
            op_index, kind, _, srcs, _, _ = op_decoded
            vals: List[float] = []
            for omega, before, regs in srcs:
                if omega is None:
                    vals.append(regfile[regs])
                    continue
                m = n - omega
                vals.append(before if m < 0 else regfile[regs[m % kmin]])
            if kind == _LOAD:
                addr = layout.address(op_index, n)
                vals = [memory[addr] if addr in memory else layout.initial_value(addr)]
            reads.append((op_decoded, n, vals))
        for (op_index, kind, opcode, _, dest, dest_name), n, vals in reads:
            if kind == _STORE:
                addr = layout.address(op_index, n)
                memory[addr] = vals[0]
                written[addr] = vals[0]
                continue
            result = vals[0] if kind == _LOAD else _evaluate(opcode, vals)
            regfile[dest[n % kmin]] = result
            if n == trips - 1:
                last_def_value[dest_name] = result
    live_out = {name: last_def_value[name] for name in loop.live_out if name in last_def_value}
    return ExecutionResult(memory=written, live_out=live_out)
