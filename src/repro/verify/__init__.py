"""repro.verify — independent translation validation for pipelined loops.

Static analyzers that re-derive, from the IR and the machine description
alone, every property the pipeliners are trusted to establish — and check
the artifacts against them.  Nothing here calls into the scheduler,
renamer, colourer or emitter implementations being checked; see
DESIGN.md section 5 for the independence argument and the rule catalogue.

Checkers
--------
* :func:`lint_ddg` — DDG well-formedness (DDG001-DDG007)
* :func:`check_schedule` — modulo-schedule legality + MinII audit
  (SCHED001-SCHED004)
* :func:`check_allocation` — register colouring soundness (REG001-REG004)
* :func:`check_emitted` — dataflow over emitted code (EMIT001-EMIT003)
* :func:`check_banks` — compile-time bank claims vs concrete layouts
  (BANK001-BANK003)
* :func:`verify_all` / :func:`verify_result` — everything applicable at once
* :func:`result_report` — the report on one driver result, listing
  included; what an exec cell run with ``oracle=True`` records.  It is
  the only verification a run gets: the drivers never check themselves,
  and the oracle flag is part of the cell's cache key.
"""

from .api import result_report, verify_all, verify_result
from .bankcheck import check_banks
from .ddglint import lint_ddg
from .diagnostics import RULES, Diagnostic, Report, Severity, VerificationError
from .emitcheck import check_emitted
from .regcheck import check_allocation
from .schedcheck import check_schedule

__all__ = [
    "RULES",
    "Diagnostic",
    "Report",
    "Severity",
    "VerificationError",
    "check_allocation",
    "check_banks",
    "check_emitted",
    "check_schedule",
    "lint_ddg",
    "result_report",
    "verify_all",
    "verify_result",
]
