"""The one verdict on cell results: the oracle's seven layers.

Layers, in order of how directly they witness a miscompile:

``crash``       an uncaught exception inside the scheduling pipeline
                (timeouts that fell back are budget accounting, not bugs);
``verify``      the independent :mod:`repro.verify` checker found an ERROR
                in the schedule, allocation or emitted listing;
``funcsim``     the pipelined functional simulation disagreed with the
                sequential reference semantics;
``min_ii``      a scheduler claimed an II below the loop's MinII lower
                bound (computed on the pristine loop, pre-injection);
``bound``       a scheduler claimed, spill-free, an II below the *certified
                refined* lower bound (:mod:`repro.analyze`, computed and
                certificate-checked on the pristine loop) — strictly
                sharper than the ``min_ii`` layer wherever the refined
                bound exceeds MinII;
``optimality``  an optimal driver (MOST or the portfolio) *proved*
                optimality natively yet reported a larger II than the SGI
                heuristic achieved on the same loop — one of the two has
                to be wrong;
``agreement``   two portfolio backends answered the *same* (loop, II)
                formulation with contradicting definitive verdicts — one
                sat, one unsat — or a sat witness failed the independent
                formulation check.  Since every backend encodes one
                neutral :class:`repro.portfolio.formulation
                .ModuloFormulation`, a disagreement is a soundness bug in
                a backend, full stop.

The first three are per-cell; ``optimality`` is cross-scheduler and
``agreement`` cross-*backend* (within one cell), which is what makes the
check differential.  A scheduler honestly giving up (``success=False``
without an exception, e.g. MOST out of budget with fallback disabled)
violates nothing — and an ``unknown`` backend answer agrees with
everything.

This is the only code that decides a cell's answer is wrong.
:func:`grid_violations` runs it over every loop of a run, and
:func:`repro.exec.bench.summarise` records the result as a BENCH json's
``totals.violations``; ``repro bench`` and ``repro verify`` exit 1 on it,
the serve selftest lists it, ``repro diff`` calls a new one a regression,
and ``make portfolio-smoke`` gates on bench's exit.  Strict experiments
and the fuzzer call :func:`check_results` on their own cells.  The
checks are duck-typed on :class:`~repro.exec.cells.CellResult` fields,
and no cell runs this module: it is outside the runner's import closure,
so editing it re-runs no cached cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping

ORACLE_KINDS = (
    "crash", "verify", "funcsim", "min_ii", "bound", "optimality", "agreement",
)


@dataclass(frozen=True)
class Violation:
    """One oracle finding for one loop."""

    kind: str  # one of ORACLE_KINDS
    scheduler: str
    detail: str

    def to_dict(self) -> Dict[str, str]:
        return {"kind": self.kind, "scheduler": self.scheduler, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: Mapping[str, str]) -> "Violation":
        return cls(kind=data["kind"], scheduler=data["scheduler"],
                   detail=data.get("detail", ""))


def check_results(results: Mapping[str, Any]) -> List[Violation]:
    """Apply every oracle layer to one loop's per-scheduler results."""
    violations: List[Violation] = []
    for scheduler, res in sorted(results.items()):
        if res.error is not None and not res.timeout:
            last = res.error.strip().splitlines()[-1] if res.error.strip() else "?"
            violations.append(Violation("crash", scheduler, last))
            continue
        if res.verify_errors:
            violations.append(Violation(
                "verify", scheduler,
                "; ".join(res.verify_errors[:3])
                + (f" (+{len(res.verify_errors) - 3} more)"
                   if len(res.verify_errors) > 3 else ""),
            ))
        if res.funcsim_ok is False:
            violations.append(Violation(
                "funcsim", scheduler, res.funcsim_detail or "output mismatch"))
        if res.success and res.ii is not None and res.ii < res.min_ii:
            violations.append(Violation(
                "min_ii", scheduler,
                f"achieved II={res.ii} below MinII={res.min_ii}"))
        if (
            res.success
            and res.ii is not None
            and res.refined_bound is not None
            and res.spill_rounds == 0
            and res.ii < res.refined_bound
        ):
            # Spill rounds rewrite the loop body, so the pristine loop's
            # certificates no longer bind; spill-free results must respect
            # the certified bound exactly.
            violations.append(Violation(
                "bound", scheduler,
                f"achieved II={res.ii} below certified refined bound="
                f"{res.refined_bound} (MinII={res.min_ii}) without spilling"))

        if res.backend_probes:
            from ..portfolio.answer import probe_disagreements

            for finding in probe_disagreements(res.backend_probes):
                violations.append(Violation("agreement", scheduler, finding))

    sgi = results.get("sgi")
    if sgi is not None and sgi.success and sgi.ii is not None:
        for scheduler, res in sorted(results.items()):
            if (
                res.success
                and res.optimal
                and not res.fallback
                and res.ii is not None
                and res.ii > sgi.ii
            ):
                violations.append(Violation(
                    "optimality", scheduler,
                    f"proved-optimal II={res.ii} exceeds heuristic II={sgi.ii}"))
    return violations


def grid_violations(results: Iterable[Any]) -> List[Dict[str, str]]:
    """The verdict on a run: :func:`check_results` over each loop's cells,
    one ``{"loop", "kind", "scheduler", "detail"}`` record per finding, in
    loop order.  A loop that ran one scheduler more than once (an
    experiment sweeping options) has each of those cells checked alone:
    the cross-scheduler layer needs one answer per scheduler."""
    by_loop: Dict[str, List[Any]] = {}
    for res in results:
        by_loop.setdefault(res.loop, []).append(res)
    found: List[Dict[str, str]] = []
    for loop, cells in by_loop.items():
        schedulers = {res.scheduler for res in cells}
        groups = ([{res.scheduler: res for res in cells}] if len(schedulers) == len(cells)
                  else [{res.scheduler: res} for res in cells])
        found += [{"loop": loop, **v.to_dict()} for group in groups
                  for v in check_results(group)]
    return found


def format_violation(record: Mapping[str, str]) -> str:
    """One line naming a grid violation's cell, layer and finding."""
    return f"{record['loop']} × {record['scheduler']}: {record['kind']}: {record['detail']}"


def format_verify(corpus: str, report: Mapping[str, Any], verbose: bool = False) -> str:
    """The ``repro verify`` table of a BENCH payload: one row per cell with
    its verifier diagnostic counts, ``FAIL`` where the run's verdict names
    the cell, then under each such cell its violations and diagnostics
    (errors only, unless ``verbose``)."""
    cells, violations = report["cells"], report["totals"]["violations"]
    found: Dict[tuple, List[str]] = {}
    for v in violations:
        found.setdefault((v["loop"], v["scheduler"]), []).append(f"{v['kind']}: {v['detail']}")
    names = [cell["loop"].partition(":")[2].rpartition("/")[2] for cell in cells]
    width = max(map(len, names), default=4)
    sched = max([5] + [len(cell["scheduler"]) for cell in cells])
    lines = [f"verify {corpus}: {len(cells)} scheduled artifacts"]
    details: List[str] = []
    for name, cell in zip(names, cells):
        errors, warnings = cell["verify_errors"], cell["verify_warnings"]
        failed = found.get((cell["loop"], cell["scheduler"]), [])
        status = "FAIL" if failed else "warn" if warnings else "ok"
        rules = sorted({line.partition(":")[0] for line in errors + warnings})
        ii = "unscheduled" if cell["ii"] is None else f"II={cell['ii']}"
        lines.append(
            f"  {name.ljust(width)}  {cell['scheduler']:<{sched}} {ii:>8}  "
            f"E={len(errors)} W={len(warnings)}  {status}"
            + (f"  [{', '.join(rules)}]" if rules and (verbose or errors) else "")
        )
        shown = failed + errors + (warnings if verbose else [])
        if shown:
            details += [f"-- {name}/{cell['scheduler']}"] + ["   " + line for line in shown]
    lines.append(
        f"total: {sum(len(c['verify_errors']) for c in cells)} error(s), "
        f"{sum(len(c['verify_warnings']) for c in cells)} warning(s), "
        f"{len(violations)} violation(s)"
    )
    return "\n".join(lines + details)
