"""The fuzzer's side of the oracle: evaluating one generated loop.

The seven layers themselves (crash, verify, funcsim, min_ii, bound,
optimality, agreement) are :mod:`repro.exec.verdict`, the one judge every
gate shares; they are re-exported here for the fuzzer and its tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..exec.cells import Cell, CellResult
from ..exec.verdict import ORACLE_KINDS, Violation, check_results

__all__ = [
    "ORACLE_KINDS", "SpecVerdict", "Violation", "check_results", "evaluate_spec",
    "spec_cells",
]


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
