"""The layered differential oracle over per-scheduler cell results.

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
``agreement`` cross-*backend* (within one portfolio cell), which is what
makes the harness differential.  A scheduler honestly giving up
(``success=False`` without an exception, e.g. MOST out of budget with
fallback disabled) violates nothing — and an ``unknown`` backend answer
agrees with everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..exec.cells import Cell, CellResult

ORACLE_KINDS = (
    "crash", "verify", "funcsim", "min_ii", "bound", "optimality", "agreement",
)

@dataclass(frozen=True)
class Violation:
    """One oracle finding for one generated loop."""

    kind: str  # one of ORACLE_KINDS
    scheduler: str
    detail: str

    def to_dict(self) -> Dict[str, str]:
        return {"kind": self.kind, "scheduler": self.scheduler, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: Mapping[str, str]) -> "Violation":
        return cls(kind=data["kind"], scheduler=data["scheduler"],
                   detail=data.get("detail", ""))


def check_results(results: Mapping[str, CellResult]) -> List[Violation]:
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


# ----------------------------------------------------------------------
# Inline evaluation (minimizer + corpus replay)
# ----------------------------------------------------------------------
def spec_cells(
    spec,
    schedulers: Optional[Tuple[str, ...]] = None,
    seed: int = 0,
    timeout: Optional[float] = 20.0,
    inject: Optional[str] = None,
    trace: bool = False,
) -> List[Cell]:
    """The exec cells that evaluate one LoopSpec under the oracle, each
    scheduler (default: the session default's) on its ``fuzz`` preset."""
    from ..schedulers import get_scheduler
    from ..workloads.mutate import spec_to_token
    from .engine import FuzzConfig

    key = f"fuzz:{spec_to_token(spec)}"
    cells = []
    for scheduler in schedulers or FuzzConfig.schedulers:
        options = get_scheduler(scheduler).preset("fuzz")
        if inject:
            options["_test_inject"] = inject
        cells.append(Cell.make(
            key,
            scheduler,
            options,
            seed=seed,
            timeout=timeout,
            simulate=False,
            trace=trace,
            oracle=True,
            analyze=True,  # certified refined bound for the ``bound`` layer
        ))
    return cells


@dataclass
class SpecVerdict:
    """Oracle outcome of evaluating one spec inline."""

    results: Dict[str, CellResult] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)


def evaluate_spec(
    spec,
    schedulers: Optional[Tuple[str, ...]] = None,
    seed: int = 0,
    timeout: Optional[float] = 20.0,
    inject: Optional[str] = None,
) -> SpecVerdict:
    """Evaluate one spec in-process (no pool, no cache).

    This is the minimizer's predicate engine and the corpus replay tests'
    backend: the exact worker code path (:func:`repro.exec.runner.
    execute_cell`), run inline.
    """
    from ..exec.runner import execute_cell

    results: Dict[str, CellResult] = {}
    for cell in spec_cells(spec, schedulers, seed=seed, timeout=timeout, inject=inject):
        payload = execute_cell(cell.to_dict(), in_worker=False)
        results[cell.scheduler] = CellResult.from_dict(payload)
    return SpecVerdict(results=results, violations=check_results(results))
