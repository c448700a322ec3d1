"""One-shot verification API and corpus sweeps.

``verify_all`` runs every applicable checker over the artifacts of one
pipelined loop; ``verify_corpus`` sweeps a whole workload corpus through
every registered pipeliner and verifies everything they produce — the
trust anchor behind the paper's "both emit correct schedules under
identical constraints" premise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription
from ..schedulers import REGISTRY, get_scheduler
from .bankcheck import check_banks
from .ddglint import lint_ddg
from .diagnostics import Report
from .emitcheck import check_emitted
from .regcheck import check_allocation
from .schedcheck import check_schedule


def verify_all(
    loop: Loop,
    schedule=None,
    allocation=None,
    emitted=None,
    machine: Optional[MachineDescription] = None,
    bank_lint: bool = True,
) -> Report:
    """Run every applicable independent checker; returns a merged report.

    ``schedule``/``allocation``/``emitted`` may each be ``None``: the DDG
    lint and the static bank audit always run, the others only when their
    artifact is present.  ``machine`` defaults to the schedule's.
    """
    report = Report()
    report.extend(lint_ddg(loop))
    ii = times = None
    if schedule is not None:
        machine = machine if machine is not None else schedule.machine
        ii, times = schedule.ii, schedule.times
        report.extend(check_schedule(loop, machine, ii, times))
    if allocation is not None and ii is not None:
        report.extend(check_allocation(loop, machine, ii, times, allocation))
    if emitted is not None and allocation is not None and ii is not None:
        report.extend(check_emitted(loop, ii, times, allocation, emitted))
    if bank_lint:
        report.extend(check_banks(loop, ii=ii, times=times))
    return report


def verify_result(result, emitted=None, machine=None) -> Report:
    """Verify any registered scheduler's result in one call.

    Uses ``result.loop`` (the loop actually scheduled, spill code included)
    so the checks see exactly what the schedule refers to.
    """
    return verify_all(
        result.loop,
        schedule=result.schedule,
        allocation=result.allocation,
        emitted=emitted,
        machine=machine,
    )


def enforce_verified(result, machine: Optional[MachineDescription] = None) -> None:
    """Verify a successful pipeliner result, raising on ERROR diagnostics.

    The hook behind the drivers' ``verify=`` option: emits the pipelined
    code and runs every checker, raising :class:`VerificationError` if any
    produced an ERROR.  Unsuccessful results are left alone — they carry
    no artifact to verify.
    """
    if not getattr(result, "success", False) or result.schedule is None:
        return
    from ..pipeline.emit import emit_pipelined_code

    emitted = None
    if result.allocation is not None and result.allocation.success:
        emitted = emit_pipelined_code(result.schedule, result.allocation)
    report = verify_result(result, emitted=emitted, machine=machine)
    report.raise_if_errors()


# ----------------------------------------------------------------------
# Corpus sweeps (the `python -m repro verify <corpus>` backend)
# ----------------------------------------------------------------------
@dataclass
class SweepEntry:
    loop: str
    scheduler: str
    ii: Optional[int]
    success: bool
    errors: int
    warnings: int
    rules: List[str] = field(default_factory=list)


@dataclass
class SweepResult:
    corpus: str
    entries: List[SweepEntry] = field(default_factory=list)
    reports: Dict[str, Report] = field(default_factory=dict)

    @property
    def total_errors(self) -> int:
        return sum(e.errors for e in self.entries)

    @property
    def total_warnings(self) -> int:
        return sum(e.warnings for e in self.entries)

    @property
    def ok(self) -> bool:
        return self.total_errors == 0

    def formatted(self, verbose: bool = False) -> str:
        width = max((len(e.loop) for e in self.entries), default=4)
        sched = max([5] + [len(e.scheduler) for e in self.entries])
        lines = [f"verify {self.corpus}: {len(self.entries)} scheduled artifacts"]
        for e in self.entries:
            status = "FAIL" if e.errors else ("warn" if e.warnings else "ok")
            ii = f"II={e.ii}" if e.ii is not None else "unscheduled"
            rules = f"  [{', '.join(e.rules)}]" if e.rules and (verbose or e.errors) else ""
            lines.append(
                f"  {e.loop.ljust(width)}  {e.scheduler:<{sched}} {ii:>8}  "
                f"{status}{rules}"
            )
        lines.append(
            f"total: {self.total_errors} error(s), {self.total_warnings} warning(s)"
        )
        if verbose or not self.ok:
            for key, report in self.reports.items():
                if report.errors or (verbose and report.diagnostics):
                    lines.append(f"-- {key}")
                    shown = report.errors if not verbose else report.diagnostics
                    lines.extend("   " + d.formatted() for d in shown)
        return "\n".join(lines)


def corpus_loops(corpus: str, machine: Optional[MachineDescription] = None) -> List[Loop]:
    """The loops of a named corpus: 'livermore', 'spec92', 'recbound' or 'all'."""
    from ..workloads.livermore import livermore_kernels
    from ..workloads.recbound import recbound_kernels
    from ..workloads.spec92 import spec92_suite

    if corpus == "livermore":
        return livermore_kernels(machine)
    if corpus == "spec92":
        return [loop for bench in spec92_suite(machine) for loop in bench.loops]
    if corpus == "recbound":
        return recbound_kernels(machine)
    if corpus == "all":
        return (
            corpus_loops("livermore", machine)
            + corpus_loops("spec92", machine)
            + corpus_loops("recbound", machine)
        )
    raise ValueError(
        f"unknown corpus {corpus!r}; expected livermore, spec92, recbound or all"
    )


def run_sweep_cell(name: str, loop: Loop, machine: MachineDescription, ilp_seconds: float):
    """One pipeliner of a corpus sweep, unverified: its ``sweep`` preset,
    with ``ilp_seconds`` as every optimal driver's ``time_limit``."""
    scheduler = get_scheduler(name)
    options = scheduler.options_from_dict(scheduler.preset("sweep", time_limit=ilp_seconds))
    return scheduler.run(loop, machine, options, verify=False)


def verify_corpus(
    corpus: str,
    schedulers: Optional[List[str]] = None,
    machine: Optional[MachineDescription] = None,
    ilp_seconds: float = 2.0,
    emit: bool = True,
) -> SweepResult:
    """Sweep a corpus through the requested pipeliners and verify everything.

    Schedulers default to the whole registry (:mod:`repro.schedulers`),
    each on its ``sweep`` preset.  Schedules, allocations and emitted code
    are all cross-checked; loops a scheduler cannot pipeline are recorded
    but are not verification failures.
    """
    from ..machine.descriptions import r8000
    from ..pipeline.emit import emit_pipelined_code

    machine = machine if machine is not None else r8000()
    sweep = SweepResult(corpus=corpus)
    for loop in corpus_loops(corpus, machine):
        for name in schedulers or REGISTRY:
            result = run_sweep_cell(name, loop, machine, ilp_seconds)
            emitted = None
            if emit and result.success and result.allocation is not None:
                emitted = emit_pipelined_code(result.schedule, result.allocation)
            if result.success:
                report = verify_result(result, emitted=emitted, machine=machine)
            else:
                report = verify_all(result.loop, machine=machine)
            sweep.entries.append(
                SweepEntry(
                    loop=loop.name,
                    scheduler=name,
                    ii=result.ii,
                    success=result.success,
                    errors=len(report.errors),
                    warnings=len(report.warnings),
                    rules=report.rules_hit(),
                )
            )
            sweep.reports[f"{loop.name}/{name}"] = report
    return sweep
