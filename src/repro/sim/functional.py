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
from functools import partial
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


def _fdiv(srcs) -> float:
    d = srcs[1] if abs(srcs[1]) > 1e-9 else 1.0
    return srcs[0] / d


#: Opcode -> (sources read, semantics on the source values); total
#: functions only, so both executions perform bit-identical arithmetic.
_SEMANTICS: Dict[str, Tuple[int, Callable[[Sequence[float]], float]]] = {
    "fadd": (2, lambda srcs: srcs[0] + srcs[1]),
    "iadd": (2, lambda srcs: srcs[0] + srcs[1]),
    "fsub": (2, lambda srcs: srcs[0] - srcs[1]),
    "fmul": (2, lambda srcs: srcs[0] * srcs[1]),
    "imul": (2, lambda srcs: srcs[0] * srcs[1]),
    "fmadd": (3, lambda srcs: srcs[0] * srcs[1] + srcs[2]),
    "fdiv": (2, _fdiv),
    "fsqrt": (1, lambda srcs: math.sqrt(abs(srcs[0]))),
    "fcmp": (2, lambda srcs: 1.0 if srcs[0] < srcs[1] else 0.0),
    "fmov": (3, lambda srcs: srcs[1] if srcs[0] != 0.0 else srcs[2]),
}


def _evaluate(opcode: str, srcs: Sequence[float]) -> float:
    """Evaluate one operation."""
    entry = _SEMANTICS.get(opcode)
    if entry is None:
        raise ValueError(f"no semantics for opcode {opcode!r}")
    return entry[1](srcs)


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
    return _LOAD if opclass is OpClass.LOAD else _STORE if opclass is OpClass.STORE else _COMPUTE


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
        addresses = layout.addresses(op.index, trips) if kind != _COMPUTE else None
        entry = _SEMANTICS.get(op.opcode)
        semantics = partial(_evaluate, op.opcode) if entry is None else entry[1]
        decoded.append((kind, semantics, srcs, dest, addresses))
    memory: Dict[int, float] = {}
    written: Dict[int, float] = {}

    for n in range(trips):
        for kind, semantics, srcs, dest, addresses in decoded:
            vals: List[float] = []
            for omega, before, values in srcs:
                if omega is None:
                    vals.append(before)
                    continue
                m = n - omega
                vals.append(before if m < 0 else values[m])
            if kind == _LOAD:
                addr = addresses[n]
                result = memory[addr] if addr in memory else layout.initial_value(addr)
            elif kind == _STORE:
                addr = addresses[n]
                memory[addr] = vals[0]
                written[addr] = vals[0]
                continue
            else:
                result = semantics(vals)
            dest.append(result)
    live_out = {name: history[name][-1] for name in loop.live_out if trips and name in history}
    return ExecutionResult(memory=written, live_out=live_out)


def _deferred(semantics: Callable, failures: List[Exception], vals: Sequence[float]) -> float:
    """``semantics(vals)``, its exception kept in ``failures`` instead of
    raised: the run raises it once every read of the cycle has been made,
    as the cycle's reads precede its evaluations."""
    try:
        return semantics(list(vals))
    except Exception as failure:
        failures.append(failure)
        return 0.0


def _register(slot: Optional[int]) -> Optional[Tuple[str, int]]:
    """The (file, number) of a register slot: fp registers are even slots."""
    return None if slot is None else ("int" if slot & 1 else "fp", slot >> 1)


def _reader(slots: Tuple[Optional[int], ...]) -> Callable[[Dict], Sequence[float]]:
    """A function reading ``slots`` of a register file, in order."""
    if len(slots) > 1:
        return itemgetter(*slots)
    if slots:
        only = slots[0]
        return lambda regfile: (regfile[only],)
    return lambda regfile: ()


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
    initial_value = layout.initial_value

    # Physical registers are integer slots: fp register c is slot 2c, int
    # register c slot 2c + 1.  A register missing from the allocation is
    # the slot ``None``, which no write makes.
    slots: Dict[str, int] = {}
    for name, color in allocation.fp_assignment.items():
        slots[name] = 2 * color
    for name, color in allocation.int_assignment.items():
        slots[name] = 2 * color + 1
    regfile: Dict[Optional[int], float] = {}
    for name in loop.live_in:
        if name in defs:
            continue
        key = slots.get(f"{name}@in")
        if key is not None:
            regfile[key] = invariants[name]

    # Each op decoded once.  Per source: its distance (0 for an invariant),
    # the value before the loop and, by replica ``n % kmin``, the slot an
    # instance of iteration n reads.  From iteration ``warm`` = max(omega)
    # on no source reads a value from before the loop, and an instance
    # reads its slots with ``readers[n % kmin]``.
    replicas = {name: [slots.get(f"{name}@{r}") for r in range(kmin)] for name in defs}
    failures: List[Exception] = []  # an op that cannot evaluate, once its cycle has read
    issues = []
    for op in loop.ops:
        srcs = []
        warm = 0
        distances = omegas[op.index]
        for pos, src in enumerate(op.srcs):
            regs = replicas.get(src)
            if regs is None:
                srcs.append((0, None, [slots.get(f"{src}@in")] * kmin))
                continue
            omega = distances[pos]
            if omega:
                shift = -omega % kmin
                regs = regs[shift:] + regs[:shift]  # regs[(n - omega) % kmin] by n % kmin
                warm = max(warm, omega)
            srcs.append((omega, invariants.get(src, 0.0), regs))
        kind = _kind(op.opclass)
        dest_name = dest = None
        if kind != _STORE:
            # Every register the run writes must exist.
            dest_name = op.dest
            dest = replicas[dest_name][: min(kmin, trips)]
            if None in dest:
                raise KeyError(f"{dest_name}@{dest.index(None)}")
        arity, semantics = _SEMANTICS.get(op.opcode, (None, None))
        if kind == _COMPUTE and (semantics is None or len(srcs) < arity):
            semantics = partial(_deferred, partial(_evaluate, op.opcode), failures)
        t0 = schedule.times[op.index]
        by_replica = zip(*[regs for _, _, regs in srcs]) if srcs else [()] * kmin
        issues.append((
            t0 // ii, t0 % ii, kind, semantics,
            srcs, warm, [_reader(read) for read in by_replica], dest, dest_name,
            layout.addresses(op.index, trips) if kind != _COMPUTE else None,
        ))

    memory: Dict[int, float] = {}
    written: Dict[int, float] = {}
    last_def_value: Dict[str, float] = {}

    # Instance (op, n) issues in row stage(op) + n of II cycles, at its
    # op's modulo slot: walking the rows in order, and in each row the
    # slots in order with their ops in op order, is the issue order.  The
    # ops of one slot form a bundle; a bundle of several ops stages its
    # register and memory writes until all of its instances have read.
    by_slot: Dict[int, list] = {}
    for issue in issues:
        by_slot.setdefault(issue[1], []).append(issue)
    bundles = [by_slot[s] for s in sorted(by_slot)]
    first = min(issue[0] for issue in issues)
    last = max(issue[0] for issue in issues)
    staged_regs: Dict[Optional[int], float] = {}
    staged_memory: Dict[int, float] = {}

    try:
        for row in range(first, last + trips):
            for bundle in bundles:
                staged = len(bundle) > 1
                regs_to = staged_regs if staged else regfile
                memory_to = staged_memory if staged else memory
                for (stage, _, kind, semantics, srcs, warm, readers, dest, dest_name,
                     addresses) in bundle:
                    n = row - stage
                    if n < 0 or n >= trips:
                        continue
                    replica = n % kmin
                    if n >= warm:
                        vals = readers[replica](regfile)
                    else:
                        vals = [
                            before if n < omega else regfile[regs[replica]]
                            for omega, before, regs in srcs
                        ]
                    if kind == _COMPUTE:
                        result = semantics(vals)
                    elif kind == _LOAD:
                        addr = addresses[n]
                        result = memory[addr] if addr in memory else initial_value(addr)
                    else:
                        addr = addresses[n]
                        memory_to[addr] = written[addr] = vals[0]
                        continue
                    regs_to[dest[replica]] = result
                    if n == trips - 1:
                        last_def_value[dest_name] = result
                if failures:
                    raise failures[0]
                if staged:
                    regfile.update(staged_regs)
                    staged_regs.clear()
                    if staged_memory:
                        memory.update(staged_memory)
                        staged_memory.clear()
    except KeyError as missing:
        # A read of a register nothing wrote: name it as the allocation does.
        raise KeyError(_register(missing.args[0])) from None
    live_out = {name: last_def_value[name] for name in loop.live_out if name in last_def_value}
    return ExecutionResult(memory=written, live_out=live_out)
