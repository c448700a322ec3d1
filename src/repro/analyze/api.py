"""Corpus-level certified-bound analysis: the ``repro analyze`` backend.

For every loop of a corpus this derives the refined II lower bounds of
:mod:`repro.analyze.bounds`, optionally validates every shipped
certificate with the independent checker (:mod:`repro.verify.boundcheck`),
runs the requested pipeliners, and cross-checks each achieved II against
the certified bounds — a contradiction (an achieved or proved-optimal II
below a *validated* bound) means either a scheduler or the analyzer is
wrong, and is reported as such rather than averaged away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription
from .bounds import LoopBounds, compute_bounds

ANALYZE_SCHEDULERS = ("sgi", "most", "rau")


@dataclass
class LoopAnalysis:
    """One loop's certified bounds next to what the schedulers achieved."""

    loop: str
    n_ops: int
    res_mii: int
    rec_mii: int
    min_ii: int
    schedulable_bound: int
    allocatable_bound: int
    pairing_bound: int
    certificates: int
    bounds: Optional[Dict[str, Any]] = None  # LoopBounds.to_dict payload
    #: scheduler -> achieved II (None = no allocatable schedule found)
    achieved: Dict[str, Optional[int]] = field(default_factory=dict)
    #: scheduler -> spill rounds (spill code voids the pristine certificates)
    spill_rounds: Dict[str, int] = field(default_factory=dict)
    #: scheduler -> natively proved optimal (MOST only)
    optimal: Dict[str, bool] = field(default_factory=dict)
    #: certificate-checker errors ("RULE: message"); empty = clean or unchecked
    check_errors: List[str] = field(default_factory=list)
    #: achieved-vs-bound contradictions (BOUND005 findings)
    contradictions: List[str] = field(default_factory=list)
    checked: bool = False

    @property
    def refined_bound(self) -> int:
        return self.schedulable_bound

    @property
    def lift(self) -> int:
        """How far the certified schedulability bound exceeds MinII."""
        return self.schedulable_bound - self.min_ii

    @property
    def ok(self) -> bool:
        return not self.check_errors and not self.contradictions

    def to_dict(self) -> Dict[str, Any]:
        return {
            "loop": self.loop,
            "n_ops": self.n_ops,
            "res_mii": self.res_mii,
            "rec_mii": self.rec_mii,
            "min_ii": self.min_ii,
            "schedulable_bound": self.schedulable_bound,
            "allocatable_bound": self.allocatable_bound,
            "pairing_bound": self.pairing_bound,
            "certificates": self.certificates,
            "achieved": dict(self.achieved),
            "spill_rounds": dict(self.spill_rounds),
            "optimal": dict(self.optimal),
            "check_errors": list(self.check_errors),
            "contradictions": list(self.contradictions),
            "checked": self.checked,
        }


@dataclass
class AnalysisReport:
    """Everything one ``repro analyze`` sweep derived, ready to print."""

    corpus: str
    entries: List[LoopAnalysis] = field(default_factory=list)
    checked: bool = False
    schedulers: Sequence[str] = ()

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def lifted(self) -> List[LoopAnalysis]:
        """Loops whose certified bound strictly exceeds MinII."""
        return [e for e in self.entries if e.lift > 0]

    def formatted(self, verbose: bool = False) -> str:
        width = max((len(e.loop) for e in self.entries), default=4)
        headers = f"  {'loop'.ljust(width)}  ops  MinII(res/rec)  sched>=  alloc>="
        for scheduler in self.schedulers:
            headers += f"  {scheduler:>5}"
        headers += "  certs  status"
        lines = [
            f"analyze {self.corpus}: {len(self.entries)} loops"
            + (" (certificates checked)" if self.checked else ""),
            headers,
        ]
        for e in self.entries:
            cells = ""
            for scheduler in self.schedulers:
                ii = e.achieved.get(scheduler)
                text = "-" if ii is None else str(ii)
                if e.optimal.get(scheduler):
                    text += "*"
                if e.spill_rounds.get(scheduler):
                    text += "s"
                cells += f"  {text:>5}"
            if e.check_errors:
                status = "FAIL"
            elif e.contradictions:
                status = "CONTRADICTED"
            elif self.checked:
                status = "ok"
            else:
                status = "unchecked"
            lines.append(
                f"  {e.loop.ljust(width)}  {e.n_ops:>3}  "
                f"{e.min_ii:>5} ({e.res_mii}/{e.rec_mii})  "
                f"{e.schedulable_bound:>7}  {e.allocatable_bound:>7}"
                f"{cells}  {e.certificates:>5}  {status}"
            )
        lifted = self.lifted
        lines.append(
            f"refined bound strictly above MinII on {len(lifted)}/"
            f"{len(self.entries)} loop(s)"
            + (
                ": " + ", ".join(f"{e.loop} (+{e.lift})" for e in lifted)
                if lifted
                else ""
            )
        )
        problems = [e for e in self.entries if not e.ok]
        if problems:
            for e in problems:
                for msg in e.check_errors + e.contradictions:
                    lines.append(f"  !! {e.loop}: {msg}")
        elif self.checked:
            total = sum(e.certificates for e in self.entries)
            lines.append(f"all {total} certificate(s) validated independently")
        if verbose:
            lines.append("legend: '*' proved optimal, 's' spill code inserted")
        return "\n".join(lines)


def _achieved(
    loop: Loop,
    machine: MachineDescription,
    schedulers: Sequence[str],
    most_time_limit: float,
    entry: LoopAnalysis,
) -> None:
    """Run the requested pipeliners and record what each one achieved."""
    from ..verify.api import run_sweep_cell

    for name in schedulers:
        result = run_sweep_cell(name, loop, machine, most_time_limit)
        entry.achieved[name] = result.ii if result.success else None
        entry.spill_rounds[name] = result.spill_rounds
        entry.optimal[name] = result.optimal


def _cross_check(
    loop: Loop,
    machine: MachineDescription,
    bounds: LoopBounds,
    entry: LoopAnalysis,
) -> None:
    """Validate certificates and test every achieved II against the bounds."""
    from ..verify.boundcheck import check_achieved, check_bounds

    payload = bounds.to_dict()
    report = check_bounds(loop, machine, payload)
    entry.check_errors = [f"{d.rule}: {d.message}" for d in report.errors]
    entry.checked = True
    for scheduler, ii in entry.achieved.items():
        if ii is None:
            continue
        achieved = check_achieved(
            payload,
            ii=ii,
            spill_free=entry.spill_rounds.get(scheduler, 0) == 0,
            source=scheduler
            + ("/optimal" if entry.optimal.get(scheduler) else ""),
        )
        entry.contradictions.extend(
            f"{d.rule}: {d.message}" for d in achieved.errors
        )


def analyze_corpus(
    corpus: str,
    schedulers: Sequence[str] = ANALYZE_SCHEDULERS,
    machine: Optional[MachineDescription] = None,
    check: bool = False,
    limit: Optional[int] = None,
    most_time_limit: float = 2.0,
    keep_payload: bool = False,
    progress: Optional[Callable[[LoopAnalysis], None]] = None,
) -> AnalysisReport:
    """Derive, (optionally) check, and cross-validate bounds for a corpus.

    ``schedulers`` may be empty to compute and check bounds without
    running any pipeliner.  ``check=True`` additionally validates every
    certificate with the independent checker and cross-checks each
    achieved II against the certified bounds.  ``keep_payload`` retains
    each loop's full ``LoopBounds.to_dict`` payload on the entry (tests
    and the JSON output use it; the printed table does not).
    """
    from ..machine.descriptions import r8000
    from ..verify.api import corpus_loops

    machine = machine if machine is not None else r8000()
    loops = corpus_loops(corpus, machine)
    if limit is not None:
        loops = loops[:limit]
    report = AnalysisReport(corpus=corpus, checked=check, schedulers=tuple(schedulers))
    for loop in loops:
        bounds = compute_bounds(loop, machine)
        entry = LoopAnalysis(
            loop=loop.name,
            n_ops=loop.n_ops,
            res_mii=bounds.res_mii,
            rec_mii=bounds.rec_mii,
            min_ii=bounds.min_ii,
            schedulable_bound=bounds.schedulable_bound,
            allocatable_bound=bounds.allocatable_bound,
            pairing_bound=bounds.pairing_bound,
            certificates=len(bounds.certificates),
            bounds=bounds.to_dict() if keep_payload else None,
        )
        if schedulers:
            _achieved(loop, machine, schedulers, most_time_limit, entry)
        if check:
            _cross_check(loop, machine, bounds, entry)
        report.entries.append(entry)
        if progress is not None:
            progress(entry)
    return report
