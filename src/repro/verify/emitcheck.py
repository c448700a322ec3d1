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
  ``stage(op)`` drain instances, with no duplicates, each listed at the
  cycle its iteration issues at (EMIT003).

A complete listing of regular shape, such as the emitter prints, has its
EMIT001 and EMIT002 questions answered per (op, replica) head by
:func:`_regular_replay_is_clean`; the instance-by-instance replay runs
only when that proof does not hold, and words every finding.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from operator import itemgetter
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..ir.ddg import DepKind
from ..ir.loop import Loop
from .diagnostics import Report, Severity

_LABEL_RE = re.compile(r"^  (fill|drain)\+(\d+):$")
_KERNEL_LABEL_RE = re.compile(r"^  kernel\[(\d+)\]\+(\d+):$")
# An instruction line is ``<head>iter{i<suffix>``: the head (text, op number
# and registers) is shared by every instance of one (op, replica), the
# suffix carries the iteration.  Together the two patterns accept exactly
# ``^    \S+.*;\s*op(\d+) iter\{i([+-]\d+)\}\s*$``; the suffix cannot hold
# ``iter{i``, so a line splits at its last one.
_ITER = "iter{i"
_HEAD_RE = re.compile(r"    \S+.*;\s*op(\d+) ")
_SUFFIX_RE = re.compile(r"([+-]\d+)\}\s*$")
_REG_RE = re.compile(r"\$[fr]\d+")

#: Kernel passes replayed; two passes expose every cyclic def-use pattern.
_KERNEL_PASSES = 2


class _Instance(NamedTuple):
    """One parsed instruction instance in the execution replay."""

    cycle: int
    op: int
    iteration: Optional[int]  # None only on a kernel label, inside the parse
    dest: Optional[str]
    srcs: List[str]
    line: str


_new_instance = tuple.__new__  # builds an _Instance without the Python-level __new__
_cycle_op = itemgetter(0, 1)
_op = itemgetter(1)
_NEVER = float("inf")  # the cycle of a write that never comes
_op_iteration = itemgetter(1, 2)


def _parse_head(head: str):
    """(op, dest, srcs) of an instruction head, or None if it is no head."""
    # The emitter's form, ``    <text>; op<digits> `` with no line break,
    # is read without the pattern.
    text, sep, op = head.rpartition("; op")
    if (
        sep and op[-1:] == " " and op[:-1].isdecimal()
        and text.startswith("    ") and text[4:5].strip() and "\n" not in text
    ):
        op = int(op[:-1])
    else:
        m = _HEAD_RE.fullmatch(head)
        if m is None:
            return None
        op = int(m.group(1))
    body = head.split(";")[0]
    dest: Optional[str] = None
    if " <- " in body:
        lhs, body = body.split(" <- ", 1)
        regs = _REG_RE.findall(lhs)
        dest = regs[-1] if regs else None
    return op, dest, _REG_RE.findall(body)


def _parse_suffix(suffix: str) -> Optional[int]:
    m = _SUFFIX_RE.match(suffix)
    return None if m is None else int(m.group(1))


def _parse_section(
    lines: List[str], section: str, report: Report, loop_name: str, heads: Dict, suffixes: Dict
) -> List[_Instance]:
    """Parse one listing section into (cycle, op, iter, dest, srcs, line).

    An instruction's cycle is its last fill/drain label's, -1 without one.
    A kernel label comes out as (u, slot, None, None, [], line): an
    instruction's iteration is always a number, so ``None`` marks a label.
    ``heads`` and ``suffixes`` memoise the parses of the call's distinct
    instruction heads and iteration suffixes across its three sections.
    """
    out: List[_Instance] = []
    append = out.append
    head_of = heads.get
    iteration_of = suffixes.get
    cycle = -1
    for line in lines:
        head, sep, suffix = line.rpartition(_ITER)
        if sep:
            parsed = head_of(head, False)
            if parsed is False:
                parsed = heads[head] = _parse_head(head)
            iteration = iteration_of(suffix, False)
            if iteration is False:
                iteration = suffixes[suffix] = _parse_suffix(suffix)
            if parsed is not None and iteration is not None:
                op, dest, srcs = parsed
                append(_new_instance(_Instance, (cycle, op, iteration, dest, srcs, line)))
                continue
        if line.startswith("  ") and line.endswith(":"):
            # The emitter's labels, parsed without the patterns below.
            if line.startswith("  fill+") and line[7:-1].isdecimal():
                cycle = int(line[7:-1])
                continue
            if line.startswith("  drain+") and line[8:-1].isdecimal():
                cycle = int(line[8:-1])
                continue
            u, sep, slot = line[9:-1].partition("]+")
            if line.startswith("  kernel[") and sep and u.isdecimal() and slot.isdecimal():
                cycle = -1
                append(_Instance(int(u), int(slot), None, None, [], line))
                continue
        label = _LABEL_RE.match(line)
        if label:
            cycle = int(label.group(2))
            continue
        klabel = _KERNEL_LABEL_RE.match(line)
        if klabel:
            cycle = -1  # kernel cycles are derived from (u, slot) below
            append(_Instance(int(klabel.group(1)), int(klabel.group(2)), None, None, [], line))
            continue
        report.add(
            "EMIT003",
            Severity.ERROR,
            f"unparseable {section} line: {line.strip()!r}",
            loop=loop_name,
            where=section,
        )
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
    heads: Dict = {}
    suffixes: Dict = {}
    prologue: List[_Instance] = [
        entry
        for entry in _parse_section(emitted.prologue, "prologue", report, name, heads, suffixes)
        if entry[2] is not None  # a kernel label leaked into the prologue
    ]

    kernel: List[_Instance] = []
    kcycle: Optional[int] = None
    for cycle, op, iteration, dest, srcs, line in _parse_section(
        emitted.kernel, "kernel", report, name, heads, suffixes
    ):
        if iteration is None:  # (u, slot) label
            kcycle = steady + cycle * ii + op  # cycle=u, op=slot here
            continue
        kernel.append(
            _new_instance(
                _Instance,
                (kcycle if kcycle is not None else steady, op, iteration, dest, srcs, line),
            )
        )

    epilogue: List[_Instance] = [
        entry
        for entry in _parse_section(emitted.epilogue, "epilogue", report, name, heads, suffixes)
        if entry[2] is not None
    ]

    _check_coverage(loop, ii, times, stages, kmin, prologue, kernel, epilogue, report)
    if not report.diagnostics and _regular_replay_is_clean(
        loop, ii, times, stages, kmin, allocation, prologue, kernel, epilogue
    ):
        return report

    # EMIT003: each instance sits at the cycle its iteration issues at (an
    # epilogue cycle counts from the steady state).  The emitter prints
    # every instance there, so only a listing the proof rejects can fail.
    for section, instances, shift in (
        ("prologue", prologue, 0), ("kernel", kernel, 0), ("epilogue", epilogue, steady)
    ):
        for cycle, op, iteration, _, _, _ in instances:
            issue = times.get(op)
            if issue is not None and cycle + shift != issue + iteration * ii:
                report.add(
                    "EMIT003",
                    Severity.ERROR,
                    f"op {op} iteration {iteration} is listed at {section} cycle {cycle}; "
                    f"the schedule issues it at cycle {issue + iteration * ii - shift}",
                    loop=name,
                    ops=(op,),
                    where=section,
                )

    # ------------------------------------------------------------------
    # Replay a concrete execution: prologue, _KERNEL_PASSES kernel passes,
    # then the epilogue, with iterations renumbered absolutely.  Pass p is
    # the kernel shifted by p * kmin iterations, p * kmin * II cycles.
    # ------------------------------------------------------------------
    trace: List[_Instance] = prologue + kernel
    for p in range(1, _KERNEL_PASSES):
        dc, di = p * kmin * ii, p * kmin
        trace += [
            _new_instance(_Instance, (c + dc, op, it + di, dest, srcs, line))
            for c, op, it, dest, srcs, line in kernel
        ]
    dc, di = steady + _KERNEL_PASSES * kmin * ii, _KERNEL_PASSES * kmin
    trace += [
        _new_instance(_Instance, (c + dc, op, it + di, dest, srcs, line))
        for c, op, it, dest, srcs, line in epilogue
    ]
    trace.sort(key=_cycle_op)

    _check_def_before_use(loop, allocation, trace, report, name)
    _check_clobbers(loop, allocation, kmin, trace, report, name)
    return report


def _regular_replay_is_clean(
    loop: Loop,
    ii: int,
    times: Mapping[int, int],
    stages: int,
    kmin: int,
    allocation,
    prologue: List[_Instance],
    kernel: List[_Instance],
    epilogue: List[_Instance],
) -> bool:
    """True when the replay provably holds no EMIT001 or EMIT002 finding.

    A complete listing (no EMIT003 finding) is *regular* when every op runs
    iterations 0 .. stages - 2 + 2*kmin of the replay exactly once each, at
    cycle t(op) + iteration * II, and its instances of one replica
    (iteration mod kmin) all write and read the same registers.  Then the
    replay is a function of the (op, replica) heads: a head's first
    instance is iteration ``replica``; a def's reads lie ``t(reader) -
    t(def) + omega * II`` cycles after it; and a head's writes recur every
    ``kmin * II`` cycles, so another write lands inside a def's window
    only if it does so modulo that period.  False means irregular or
    possibly unclean: the instance-by-instance replay decides.
    """
    n_ops = loop.n_ops
    period = kmin * ii
    replay = stages - 1 + 2 * kmin  # iterations of each op in the replay
    issue = [times[op] for op in range(n_ops)]
    if kmin < 1 or min(issue) < 0:
        return False
    steady = (stages - 1) * ii
    # (dest, srcs) by op * kmin + replica.  Instances sharing a head text
    # share its parsed source list, and with it the destination.
    heads: List[Optional[Tuple[Optional[str], List[str]]]] = [None] * (n_ops * kmin)
    # Each section's cycles, shift and iterations stay apart from the others'.
    for instances, lo, hi, shift, skip in (
        (prologue, -_NEVER, steady, 0, 0),
        (kernel, steady, steady + period, 0, 0),
        (epilogue, 0, _NEVER, steady + 2 * period, 2 * kmin),
    ):
        for cycle, op, iteration, dest, srcs, _ in instances:
            iteration += skip
            if not (
                lo <= cycle < hi
                and 0 <= op < n_ops
                and 0 <= iteration < replay
                and cycle + shift == issue[op] + iteration * ii
            ):
                return False
            key = op * kmin + iteration % kmin
            registers = heads[key]
            if registers is None:
                heads[key] = (dest, srcs)
            elif registers[1] is not srcs and registers != (dest, srcs):
                return False

    # EMIT001: each register's first read comes after its first write.  A
    # head's first instance is iteration ``replica``.
    names = _register_names(allocation)
    defined = _preinitialized(loop, names)
    first_write: Dict[str, int] = {}
    first_read: Dict[str, int] = {}
    for key, (dest, srcs) in enumerate(heads):
        cycle = issue[key // kmin] + key % kmin * ii
        if dest is not None and cycle < first_write.get(dest, _NEVER):
            first_write[dest] = cycle
        for reg in srcs:
            if cycle < first_read.get(reg, _NEVER):
                first_read[reg] = cycle
    for reg, cycle in first_read.items():
        if reg not in defined and first_write.get(reg, cycle) >= cycle:
            return False

    # EMIT002: each def's consumers read its register, and no other write
    # to it lands in [def, max(def + 1, read)): its writes' cycles modulo
    # kmin * II, sorted, leave a gap of at least the longest such window
    # after this head's.
    residues: Dict[str, List[int]] = {}
    for key, (dest, _) in enumerate(heads):
        if dest is not None:
            residues.setdefault(dest, []).append((issue[key // kmin] + key % kmin * ii) % period)
    for writes in residues.values():
        writes.sort()
    # Per def: each flow arc's reader, distance and window, the same for
    # every instance of the def.
    flow: Dict[int, List[Tuple[int, int, int]]] = {}
    for a in loop.ddg.arcs:
        if a.kind is DepKind.FLOW and a.value:
            window = max(1, issue[a.dst] - issue[a.src] + a.omega * ii)
            flow.setdefault(a.src, []).append((a.dst, a.omega, window))
    for op, arcs in flow.items():
        value = _dest_value(loop, op)
        for replica in range(kmin):
            dest = heads[op * kmin + replica][0]
            if dest is None:
                continue
            expected = names.get(f"{value}@{replica}")
            longest = 0
            for dst, omega, window in arcs:
                # The first iteration of this replica whose reader is replayed.
                first = replica if omega >= 0 else -omega + (replica + omega) % kmin
                if first >= replay - max(omega, 0):
                    continue
                reader = heads[dst * kmin + (replica + omega) % kmin]
                if expected is not None and expected not in reader[1]:
                    return False
                if window > longest:
                    longest = window
            if longest:
                writes = residues[dest]
                residue = (issue[op] + replica * ii) % period
                at = bisect_left(writes, residue) + 1
                following = writes[at] if at < len(writes) else writes[0] + period
                if following - residue < longest:
                    return False
    return True


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
    stage_of = [times[op] // ii for op in range(loop.n_ops)]
    counts: Dict[str, Counter] = {}
    for section, instances in (("prologue", prologue), ("kernel", kernel), ("epilogue", epilogue)):
        keys = list(map(_op_iteration, instances))
        if len(set(keys)) != len(keys):
            for (op, iteration), count in sorted(Counter(keys).items()):
                if count > 1:
                    report.add(
                        "EMIT003",
                        Severity.ERROR,
                        f"op {op} iteration {iteration} emitted {count} times in the {section}",
                        loop=name,
                        ops=(op,),
                        where=section,
                    )
        counts[section] = Counter(map(_op, instances))
    # Every count as required (none of an op that need none) reports nothing.
    if (
        counts["prologue"] == {op: stages - 1 - s for op, s in enumerate(stage_of) if stages - 1 - s}
        and counts["kernel"] == {op: kmin for op in range(loop.n_ops) if kmin}
        and counts["epilogue"] == {op: s for op, s in enumerate(stage_of) if s}
    ):
        return
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


def _preinitialized(loop: Loop, names: Dict[str, str]) -> set:
    """Registers holding values defined before the loop body runs.

    Loop invariants (``v@in``) and every replica of a recurrence's register
    (its first ``omega`` instances are initialised by the loop preamble,
    which the emitter does not print) count as defined at entry.  ``names``
    are the allocation's :func:`_register_names`.
    """
    defined = set()
    recurrences = {d for op in loop.ops for d in op.dests if d in loop.live_in}
    for rng, reg in names.items():
        if rng.endswith("@in") or (recurrences and rng.rsplit("@", 1)[0] in recurrences):
            defined.add(reg)
    return defined


def _check_def_before_use(
    loop: Loop, allocation, trace: List[_Instance], report: Report, name: str
) -> None:
    """EMIT001: replay the trace; reads must follow writes (or live-ins)."""
    defined = _preinitialized(loop, _register_names(allocation))
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
