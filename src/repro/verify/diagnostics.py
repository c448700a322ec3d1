"""Structured diagnostics for the independent verification subsystem.

Every checker in :mod:`repro.verify` reports findings as :class:`Diagnostic`
records carrying a catalogued rule id, a severity, the operations involved
and a fix hint, collected into a :class:`Report`.  The catalogue below is
the single source of truth for rule ids; DESIGN.md §5 and the README quote
it verbatim.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


class Severity(enum.Enum):
    ERROR = "error"  # the artifact is wrong; strict mode fails the build
    WARNING = "warning"  # suspicious but not provably incorrect
    INFO = "info"


#: Rule catalogue: id -> one-line description.  Grouped by checker family.
RULES: Dict[str, str] = {
    # DDG well-formedness lint
    "DDG001": "dependence arc endpoint outside the operation range (dangling edge)",
    "DDG002": "dependence arc with negative latency",
    "DDG003": "dependence arc with negative iteration distance (omega)",
    "DDG004": "self-dependence with omega 0 (unsatisfiable recurrence)",
    "DDG005": "operation disconnected from the dependence graph",
    "DDG006": "flow arc / def-use inconsistency (arc names a register the "
    "endpoints do not define/read, or a use has no covering arc)",
    "DDG007": "implausibly large omega (iteration distance)",
    # Modulo-schedule legality
    "SCHED001": "dependence constraint t(dst) >= t(src) + latency - omega*II violated",
    "SCHED002": "modulo reservation overflow (resource oversubscribed in a slot)",
    "SCHED003": "schedule does not cover the loop body (missing or unknown op ids)",
    "SCHED004": "II below the independently derived MinII lower bound",
    # Register allocation
    "REG001": "live range has no physical register assigned",
    "REG002": "interfering live ranges share a physical register",
    "REG003": "physical register outside the register file",
    "REG004": "kernel unroll factor (kmin) below a value's lifetime requirement",
    # Emitted-code dataflow
    "EMIT001": "physical register read before any definition",
    "EMIT002": "physical register clobbered between a write and a dependent read",
    "EMIT003": "prologue/kernel/epilogue instance coverage wrong (drain incomplete, "
    "duplicated or missing instances)",
    # Static bank-conflict analysis
    "BANK001": "compile-time relative-bank claim contradicted by concrete addresses",
    "BANK002": "same-cycle memory pair without a proven opposite bank (stall risk)",
    "BANK003": "declared base parity contradicted by the concrete data layout",
    # Certified II lower bounds (repro.analyze certificates)
    "BOUND001": "malformed bound certificate (missing or ill-typed fields)",
    "BOUND002": "witness arc or path missing from the DDG, broken, or its "
    "claimed latency/omega stronger than the real arc",
    "BOUND003": "certificate counting contradicts the machine description or "
    "loop body (availability, reservation tables, memory refs)",
    "BOUND004": "certificate arithmetic wrong (totals, ceilings, windows, or "
    "an uncovered II inside a claimed bound climb)",
    "BOUND005": "certified lower bound contradicted by an achieved or "
    "proved-optimal II",
    "BOUND006": "register class, lifetime witness or invariant set "
    "inconsistent with the loop's def/use structure",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one checker."""

    rule: str  # catalogue id, e.g. "SCHED001"
    severity: Severity
    message: str
    loop: str = ""  # loop name, when known
    ops: Tuple[int, ...] = ()  # operation ids involved
    where: str = ""  # finer location: arc, slot, register, listing line
    hint: str = ""  # what to look at to fix it

    def formatted(self) -> str:
        parts = [f"{self.severity.value.upper()} {self.rule}"]
        if self.loop:
            parts.append(f"[{self.loop}]")
        if self.ops:
            parts.append("ops " + ",".join(str(o) for o in self.ops))
        if self.where:
            parts.append(f"({self.where})")
        parts.append(self.message)
        text = " ".join(parts)
        if self.hint:
            text += f"  hint: {self.hint}"
        return text


class VerificationError(ValueError):
    """Raised when strict verification finds ERROR diagnostics.

    ``message`` replaces the report's own rendering when the failure spans
    more than one report (a strict experiment names every failed cell).
    """

    def __init__(self, report: "Report", message: Optional[str] = None):
        self.report = report
        super().__init__(report.formatted() if message is None else message)


@dataclass
class Report:
    """A collection of diagnostics from one or more checkers."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(
        self,
        rule: str,
        severity: Severity,
        message: str,
        *,
        loop: str = "",
        ops: Iterable[int] = (),
        where: str = "",
        hint: str = "",
    ) -> None:
        if rule not in RULES:
            raise KeyError(f"unknown verification rule {rule!r}")
        self.diagnostics.append(
            Diagnostic(
                rule=rule,
                severity=severity,
                message=message,
                loop=loop,
                ops=tuple(ops),
                where=where,
                hint=hint,
            )
        )

    def extend(self, other: "Report") -> None:
        self.diagnostics.extend(other.diagnostics)

    # ------------------------------------------------------------------
    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no ERROR diagnostics remain (warnings allowed)."""
        return not self.errors

    def by_rule(self, rule: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    def rules_hit(self) -> List[str]:
        return sorted({d.rule for d in self.diagnostics})

    def raise_if_errors(self) -> None:
        if not self.ok:
            raise VerificationError(self)

    def formatted(self) -> str:
        if not self.diagnostics:
            return "verification clean: no diagnostics"
        lines = [d.formatted() for d in self.diagnostics]
        lines.append(f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)")
        return "\n".join(lines)
