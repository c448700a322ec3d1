"""Corpus-level certified-bound analysis: the ``repro analyze`` backend.

For every loop of a corpus this derives the refined II lower bounds of
:mod:`repro.analyze.bounds`, optionally validates every shipped
certificate with the independent checker (:mod:`repro.verify.boundcheck`),
and cross-checks each achieved II of the grid's cell results against the
certified bounds — a contradiction (an achieved or proved-optimal II
below a *validated* bound) means either a scheduler or the analyzer is
wrong, and is reported as such rather than averaged away.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription, r8000
from .bounds import compute_bounds


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
    bounds: Dict[str, Any] = field(default_factory=dict)  # LoopBounds.to_dict payload
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
    #: the grid verdict's violations on this loop ("scheduler kind: detail")
    violations: List[str] = field(default_factory=list)
    #: cells whose recorded refined_bound differs from schedulable_bound
    bound_mismatches: List[str] = field(default_factory=list)
    checked: bool = False

    @property
    def lift(self) -> int:
        """How far the certified schedulability bound exceeds MinII."""
        return self.schedulable_bound - self.min_ii

    @property
    def problems(self) -> List[str]:
        return (
            self.check_errors
            + self.contradictions
            + self.bound_mismatches
            + self.violations
        )

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        for key in ("violations", "bound_mismatches"):
            if not data[key]:  # only a violating or disagreeing cell adds the key
                del data[key]
        return data


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
        widths = {s: max(5, len(s)) for s in self.schedulers}
        for scheduler in self.schedulers:
            headers += f"  {scheduler:>{widths[scheduler]}}"
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
                cells += f"  {text:>{widths[scheduler]}}"
            if e.check_errors or e.violations or e.bound_mismatches:
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
                for msg in e.problems:
                    lines.append(f"  !! {e.loop}: {msg}")
        elif self.checked:
            total = sum(e.certificates for e in self.entries)
            lines.append(f"all {total} certificate(s) validated independently")
        if verbose:
            lines.append("legend: '*' proved optimal, 's' spill code inserted")
        return "\n".join(lines)


def _cross_check(loop: Loop, machine: MachineDescription, entry: LoopAnalysis) -> None:
    """Validate certificates and test every achieved II against the bounds."""
    from ..verify.boundcheck import check_achieved, check_bounds

    payload = entry.bounds
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
    results: Sequence[Any] = (),
    check: bool = False,
    limit: Optional[int] = None,
    violations: Sequence[Mapping[str, str]] = (),
) -> AnalysisReport:
    """Derive, (optionally) check, and cross-validate bounds for a corpus.

    ``results`` are the grid's cell results (none: bounds only) and
    ``violations`` its verdict (the BENCH json's ``totals.violations``).
    A violation fails its loop's row, and so does a cell that ran to the
    end whose worker-computed ``refined_bound`` differs from the
    schedulable bound derived here.  ``check=True`` additionally
    validates every certificate with the independent checker and
    cross-checks each achieved II against the certified bounds.
    """
    from ..exec.cells import corpus_loop_keys, resolve_loop

    machine = r8000()
    by_loop: Dict[str, List[Any]] = {}
    for result in results:
        by_loop.setdefault(result.loop, []).append(result)
    schedulers = tuple(dict.fromkeys(result.scheduler for result in results))
    report = AnalysisReport(corpus=corpus, checked=check, schedulers=schedulers)
    for key in corpus_loop_keys(corpus)[:limit]:
        loop = resolve_loop(key, machine)
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
            bounds=bounds.to_dict(),
        )
        entry.violations = [f"{v['scheduler']} {v['kind']}: {v['detail']}"
                            for v in violations if v["loop"] == key]
        for result in by_loop.get(key, ()):
            if result.error is None and result.refined_bound != bounds.schedulable_bound:
                entry.bound_mismatches.append(
                    f"{result.scheduler} cell recorded refined_bound "
                    f"{result.refined_bound}, the view derives {bounds.schedulable_bound}"
                )
            entry.achieved[result.scheduler] = result.ii if result.success else None
            entry.spill_rounds[result.scheduler] = result.spill_rounds
            entry.optimal[result.scheduler] = result.optimal
        if check:
            _cross_check(loop, machine, entry)
        report.entries.append(entry)
    return report
