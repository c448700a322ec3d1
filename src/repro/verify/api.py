"""One-shot verification API and the corpus-sweep report.

``verify_all`` runs every applicable checker over the artifacts of one
pipelined loop; ``result_report`` runs it over whatever one driver
returned, the one verification a run gets (the exec oracle).
:class:`SweepResult` is the ``python -m repro verify`` table: one row per
(loop × pipeliner) exec cell, built from what each cell's oracle found —
the trust anchor behind the paper's "both emit correct schedules under
identical constraints" premise.  The cells run in :mod:`repro.exec`;
nothing here calls a pipeliner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription
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


def result_report(result, machine: Optional[MachineDescription] = None) -> Report:
    """The independent report on one driver result, whatever it holds.

    A scheduled result is checked whole: schedule, allocation and, when
    allocation succeeded, the emitted listing.  A result with nothing
    scheduled still has its loop linted.  This is the exec oracle's
    verification (``Cell.oracle``); the report is returned, never raised.
    """
    if not getattr(result, "success", False) or result.schedule is None:
        return verify_all(result.loop, machine=machine)
    emitted = None
    if result.allocation is not None and result.allocation.success:
        from ..pipeline.emit import emit_pipelined_code

        emitted = emit_pipelined_code(result.schedule, result.allocation)
    return verify_result(result, emitted=emitted, machine=machine)


# ----------------------------------------------------------------------
# Corpus sweeps (the `python -m repro verify <corpus>` report)
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
    #: "RULE: message" lines, the errors first
    diagnostics: List[str] = field(default_factory=list)
    #: why the row fails beyond its diagnostics: the cell crashed, or the
    #: pipelined code computes something else than the loop (empty = neither)
    failure: str = ""

    @classmethod
    def from_cell(cls, loop: str, result: Any) -> "SweepEntry":
        """The row of one exec cell run with ``oracle=True``."""
        failure = ""
        if result.error is not None:
            failure = "cell error: " + result.error.strip().splitlines()[-1]
        elif result.funcsim_ok is False:
            failure = "functional mismatch: " + result.funcsim_detail
        diagnostics = result.verify_errors + result.verify_warnings
        return cls(
            loop=loop,
            scheduler=result.scheduler,
            ii=result.ii,
            success=result.success,
            errors=len(result.verify_errors),
            warnings=len(result.verify_warnings),
            rules=sorted({line.partition(":")[0] for line in diagnostics}),
            diagnostics=diagnostics,
            failure=failure,
        )


@dataclass
class SweepResult:
    corpus: str
    entries: List[SweepEntry] = field(default_factory=list)

    @property
    def total_errors(self) -> int:
        return sum(e.errors for e in self.entries)

    @property
    def total_warnings(self) -> int:
        return sum(e.warnings for e in self.entries)

    @property
    def failures(self) -> List[SweepEntry]:
        return [e for e in self.entries if e.failure]

    @property
    def ok(self) -> bool:
        return self.total_errors == 0 and not self.failures

    def formatted(self, verbose: bool = False) -> str:
        width = max((len(e.loop) for e in self.entries), default=4)
        sched = max([5] + [len(e.scheduler) for e in self.entries])
        lines = [f"verify {self.corpus}: {len(self.entries)} scheduled artifacts"]
        for e in self.entries:
            status = "FAIL" if e.errors or e.failure else ("warn" if e.warnings else "ok")
            ii = f"II={e.ii}" if e.ii is not None else "unscheduled"
            rules = f"  [{', '.join(e.rules)}]" if e.rules and (verbose or e.errors) else ""
            lines.append(
                f"  {e.loop.ljust(width)}  {e.scheduler:<{sched}} {ii:>8}  "
                f"E={e.errors} W={e.warnings}  {status}{rules}"
            )
        failed = len(self.failures)
        lines.append(
            f"total: {self.total_errors} error(s), {self.total_warnings} warning(s)"
            + (f", {failed} failed cell(s)" if failed else "")
        )
        for e in self.entries:
            shown = e.diagnostics if verbose else e.diagnostics[: e.errors]
            if e.failure or shown:
                lines.append(f"-- {e.loop}/{e.scheduler}")
                lines.extend("   " + line for line in [e.failure] + shown if line)
        return "\n".join(lines)
