"""Emitted-code dataflow analyzer (rules EMIT001-EMIT003).

Parses the textual listing produced by :mod:`repro.pipeline.emit` back into
(cycle, operation, iteration, registers) instances — trusting nothing but
the listing format itself — and replays a concrete execution (prologue, two
kernel passes, epilogue) to prove:

* every physical register read was previously written, or belongs to a
  live-in value initialised before the loop (EMIT001);
* between a value's write and each dependent read (derived from the loop's
  flow arcs), no other instruction writes the same physical register — the
  overlapped-stage clobber that modulo renaming exists to prevent (EMIT002);
* the prologue/kernel/epilogue sections cover exactly the instances a
  ``stages``-deep, ``kmin``-unrolled pipeline implies: ``kmin`` kernel
  instances per op, ``stages - 1 - stage(op)`` fill instances and
  ``stage(op)`` drain instances, with no duplicates (EMIT003).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Tuple

from ..ir.ddg import DepKind
from ..ir.loop import Loop
from .diagnostics import Report, Severity

_LABEL_RE = re.compile(r"^  (fill|drain)\+(\d+):$")
_KERNEL_LABEL_RE = re.compile(r"^  kernel\[(\d+)\]\+(\d+):$")
_INSTR_RE = re.compile(r"^    \S+.*;\s*op(\d+) iter\{i([+-]\d+)\}\s*$")
_REG_RE = re.compile(r"\$[fr]\d+")

#: Kernel passes replayed; two passes expose every cyclic def-use pattern.
_KERNEL_PASSES = 2


class _Instance:
    """One parsed instruction instance in the execution replay."""

    __slots__ = ("cycle", "op", "iteration", "dest", "srcs", "line")

    def __init__(self, cycle, op, iteration, dest, srcs, line):
        self.cycle = cycle
        self.op = op
        self.iteration = iteration
        self.dest = dest
        self.srcs = srcs
        self.line = line


def _parse_section(
    lines: List[str], section: str, report: Report, loop_name: str
) -> List[Tuple[int, int, int, Optional[str], List[str], str]]:
    """Parse one listing section into (cycle, op, iter, dest, srcs, line)."""
    out = []
    cycle: Optional[int] = None
    for line in lines:
        label = _LABEL_RE.match(line)
        if label:
            cycle = int(label.group(2))
            continue
        klabel = _KERNEL_LABEL_RE.match(line)
        if klabel:
            cycle = None  # kernel cycles are derived from (u, slot) below
            out.append((int(klabel.group(1)), int(klabel.group(2)), -1, None, [], line))
            continue
        m = _INSTR_RE.match(line)
        if not m:
            report.add(
                "EMIT003",
                Severity.ERROR,
                f"unparseable {section} line: {line.strip()!r}",
                loop=loop_name,
                where=section,
            )
            continue
        op, iteration = int(m.group(1)), int(m.group(2))
        body = line.split(";")[0]
        dest: Optional[str] = None
        if " <- " in body:
            lhs, body = body.split(" <- ", 1)
            regs = _REG_RE.findall(lhs)
            dest = regs[-1] if regs else None
        srcs = _REG_RE.findall(body)
        out.append((cycle if cycle is not None else -1, op, iteration, dest, srcs, line))
    return out


def check_emitted(
    loop: Loop,
    ii: int,
    times: Mapping[int, int],
    allocation,
    emitted,
) -> Report:
    """Verify a :class:`~repro.pipeline.emit.PipelinedCode` against its inputs."""
    report = Report()
    name = loop.name
    if any(op not in times for op in range(loop.n_ops)):
        return report  # coverage problems are SCHED003's job
    stages = 1 + max(times[op] // ii for op in range(loop.n_ops))
    kmin = emitted.kmin
    steady = (stages - 1) * ii
    if emitted.n_stages != stages:
        report.add(
            "EMIT003",
            Severity.ERROR,
            f"emitted code claims {emitted.n_stages} stages; the schedule has {stages}",
            loop=name,
        )

    # ------------------------------------------------------------------
    # Parse the three sections into instruction instances.
    # ------------------------------------------------------------------
    prologue: List[_Instance] = []
    for cycle, op, iteration, dest, srcs, line in _parse_section(
        emitted.prologue, "prologue", report, name
    ):
        if iteration == -1:
            continue  # kernel label leaked into prologue; already reported
        prologue.append(_Instance(cycle, op, iteration, dest, srcs, line))

    kernel: List[_Instance] = []
    kcycle: Optional[int] = None
    for cycle, op, iteration, dest, srcs, line in _parse_section(
        emitted.kernel, "kernel", report, name
    ):
        if iteration == -1:  # (u, slot) label
            kcycle = steady + cycle * ii + op  # cycle=u, op=slot here
            continue
        kernel.append(_Instance(kcycle if kcycle is not None else steady, op, iteration, dest, srcs, line))

    epilogue: List[_Instance] = []
    for cycle, op, iteration, dest, srcs, line in _parse_section(
        emitted.epilogue, "epilogue", report, name
    ):
        if iteration == -1:
            continue
        epilogue.append(_Instance(cycle, op, iteration, dest, srcs, line))

    _check_coverage(loop, ii, times, stages, kmin, prologue, kernel, epilogue, report)

    # ------------------------------------------------------------------
    # Replay a concrete execution: prologue, _KERNEL_PASSES kernel passes,
    # then the epilogue, with iterations renumbered absolutely.
    # ------------------------------------------------------------------
    trace: List[_Instance] = list(prologue)
    for p in range(_KERNEL_PASSES):
        for inst in kernel:
            trace.append(
                _Instance(
                    inst.cycle + p * kmin * ii,
                    inst.op,
                    inst.iteration + p * kmin,
                    inst.dest,
                    inst.srcs,
                    inst.line,
                )
            )
    drain_base = steady + _KERNEL_PASSES * kmin * ii
    for inst in epilogue:
        trace.append(
            _Instance(
                drain_base + inst.cycle,
                inst.op,
                inst.iteration + _KERNEL_PASSES * kmin,
                inst.dest,
                inst.srcs,
                inst.line,
            )
        )
    trace.sort(key=lambda i: (i.cycle, i.op))

    _check_def_before_use(loop, allocation, trace, report, name)
    _check_clobbers(loop, allocation, kmin, trace, report, name)
    return report


def _check_coverage(
    loop: Loop,
    ii: int,
    times: Mapping[int, int],
    stages: int,
    kmin: int,
    prologue: List[_Instance],
    kernel: List[_Instance],
    epilogue: List[_Instance],
    report: Report,
) -> None:
    """EMIT003: per-op instance counts implied by stage depth and unroll."""
    name = loop.name
    for section, instances in (("prologue", prologue), ("kernel", kernel), ("epilogue", epilogue)):
        seen: Dict[Tuple[int, int], int] = {}
        for inst in instances:
            seen[(inst.op, inst.iteration)] = seen.get((inst.op, inst.iteration), 0) + 1
        for (op, iteration), count in sorted(seen.items()):
            if count > 1:
                report.add(
                    "EMIT003",
                    Severity.ERROR,
                    f"op {op} iteration {iteration} emitted {count} times in the {section}",
                    loop=name,
                    ops=(op,),
                    where=section,
                )
    counts: Dict[str, Dict[int, int]] = {"prologue": {}, "kernel": {}, "epilogue": {}}
    for section, instances in (("prologue", prologue), ("kernel", kernel), ("epilogue", epilogue)):
        for inst in instances:
            counts[section][inst.op] = counts[section].get(inst.op, 0) + 1
    for op in range(loop.n_ops):
        stage = times[op] // ii
        expect = {"prologue": stages - 1 - stage, "kernel": kmin, "epilogue": stage}
        for section, want in expect.items():
            got = counts[section].get(op, 0)
            if got != want:
                what = (
                    "epilogue drain incomplete"
                    if section == "epilogue" and got < want
                    else f"{section} instance count wrong"
                )
                report.add(
                    "EMIT003",
                    Severity.ERROR,
                    f"{what} for op {op} (stage {stage}): "
                    f"{got} instance(s) emitted, {want} required",
                    loop=name,
                    ops=(op,),
                    where=section,
                    hint="an op at stage s must fill (stages-1-s) times, run kmin "
                    "times per kernel, and drain s times",
                )


def _register_names(allocation) -> Dict[str, str]:
    """Renamed live range -> textual physical register, e.g. 'v3@1' -> '$f2'."""
    names: Dict[str, str] = {}
    for rng, color in getattr(allocation, "fp_assignment", {}).items():
        names[rng] = f"$f{color}"
    for rng, color in getattr(allocation, "int_assignment", {}).items():
        names[rng] = f"$r{color}"
    return names


def _preinitialized(loop: Loop, allocation) -> set:
    """Registers holding values defined before the loop body runs.

    Loop invariants (``v@in``) and every replica of a recurrence's register
    (its first ``omega`` instances are initialised by the loop preamble,
    which the emitter does not print) count as defined at entry.
    """
    names = _register_names(allocation)
    defined = set()
    defs = {d for op in loop.ops for d in op.dests}
    for rng, reg in names.items():
        value = rng.rsplit("@", 1)[0]
        if rng.endswith("@in") or (value in loop.live_in and value in defs):
            defined.add(reg)
    return defined


def _check_def_before_use(
    loop: Loop, allocation, trace: List[_Instance], report: Report, name: str
) -> None:
    """EMIT001: replay the trace; reads must follow writes (or live-ins)."""
    defined = _preinitialized(loop, allocation)
    i = 0
    flagged = set()
    while i < len(trace):
        j = i
        while j < len(trace) and trace[j].cycle == trace[i].cycle:
            j += 1
        bundle = trace[i:j]
        # Within a cycle, register reads observe the *previous* cycle's
        # state: a same-cycle write cannot satisfy a read.
        for inst in bundle:
            for reg in inst.srcs:
                if reg not in defined and reg not in flagged:
                    flagged.add(reg)
                    report.add(
                        "EMIT001",
                        Severity.ERROR,
                        f"{reg} read at cycle {inst.cycle} by op {inst.op} "
                        f"(iteration {inst.iteration}) before any definition",
                        loop=name,
                        ops=(inst.op,),
                        where=inst.line.strip(),
                        hint="the operand selects a renamed copy nothing wrote; "
                        "check the iteration -> replica mapping",
                    )
        for inst in bundle:
            if inst.dest is not None:
                defined.add(inst.dest)
        i = j


def _check_clobbers(
    loop: Loop,
    allocation,
    kmin: int,
    trace: List[_Instance],
    report: Report,
    name: str,
) -> None:
    """EMIT002: no write may land between a def and its dependent reads."""
    names = _register_names(allocation)
    by_key: Dict[Tuple[int, int], _Instance] = {
        (inst.op, inst.iteration): inst for inst in trace
    }
    writes: Dict[str, List[Tuple[int, Tuple[int, int]]]] = {}
    for inst in trace:
        if inst.dest is not None:
            writes.setdefault(inst.dest, []).append((inst.cycle, (inst.op, inst.iteration)))
    for reg in writes:
        writes[reg].sort()

    # Flow arcs grouped by producer, in arc order.
    flow: Dict[int, List[Tuple[int, str, int]]] = {}
    for a in loop.ddg.arcs:
        if a.kind is DepKind.FLOW and a.value:
            flow.setdefault(a.src, []).append((a.dst, a.value, a.omega))
    reported = set()
    for inst in trace:
        if inst.dest is None or inst.op not in flow:
            continue
        expected = names.get(f"{_dest_value(loop, inst.op)}@{inst.iteration % kmin}")
        reg_writes = writes[inst.dest]
        for dst, value, omega in flow[inst.op]:
            consumer = by_key.get((dst, inst.iteration + omega))
            if consumer is None:
                continue  # past the end of the replayed window
            if expected is not None and expected not in consumer.srcs:
                key = (inst.op, dst, inst.iteration)
                if key not in reported:
                    reported.add(key)
                    report.add(
                        "EMIT002",
                        Severity.ERROR,
                        f"op {dst} (iteration {consumer.iteration}) should read "
                        f"{value!r} from {expected} written by op {inst.op} "
                        f"(iteration {inst.iteration}) but reads {consumer.srcs}",
                        loop=name,
                        ops=(inst.op, dst),
                        where=consumer.line.strip(),
                    )
                continue
            # A clobber is a write to the same register in the def's own
            # cycle, or strictly between the def and the read: the cycles
            # [def, max(def + 1, read)), cut from the sorted write list.
            lo = bisect_left(reg_writes, (inst.cycle,))
            hi = bisect_left(reg_writes, (max(inst.cycle + 1, consumer.cycle),), lo)
            for w_cycle, w_ident in reg_writes[lo:hi]:
                if w_ident == (inst.op, inst.iteration):
                    continue
                key = (inst.dest, w_ident)
                if key in reported:
                    continue
                reported.add(key)
                report.add(
                    "EMIT002",
                    Severity.ERROR,
                    f"{inst.dest} written by op {inst.op} (iteration "
                    f"{inst.iteration}, cycle {inst.cycle}) is overwritten by "
                    f"op {w_ident[0]} (iteration {w_ident[1]}, cycle {w_cycle}) "
                    f"before op {dst} reads it at cycle {consumer.cycle}",
                    loop=name,
                    ops=(inst.op, w_ident[0], dst),
                    hint="overlapped pipestages reuse a register too early; "
                    "kmin or the colouring is wrong",
                )


def _dest_value(loop: Loop, op: int) -> str:
    dests = loop.ops[op].dests
    return dests[0] if dests else ""
