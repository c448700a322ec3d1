"""One-shot verification API.

``verify_all`` runs every applicable checker over the artifacts of one
pipelined loop; ``result_report`` runs it over whatever one driver
returned, the one verification a run gets (the exec oracle).  The
``python -m repro verify`` table is :func:`repro.exec.verdict
.format_verify`, printed from a grid's BENCH json; nothing here calls a
pipeliner.
"""

from __future__ import annotations

from typing import Optional

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
    if not result.success or result.schedule is None:
        return verify_all(result.loop, machine=machine)
    emitted = None
    if result.allocation is not None and result.allocation.success:
        from ..pipeline.emit import emit_pipelined_code

        emitted = emit_pipelined_code(result.schedule, result.allocation)
    return verify_result(result, emitted=emitted, machine=machine)
