"""The II walk both optimal drivers share (§3.3, §4.4).

MOST and the backend portfolio ask one question per (loop, II).  Around
it, once: IIs from MinII to ``ii_cap_factor * MinII`` under one
:class:`SolveBudget`; the window-collapse screen; II-optimality proven
when every smaller II was proven infeasible; a register-allocation failure
walks on (a larger II shortens relative lifetimes); an empty-handed walk
falls back on the SGI heuristic without bank pairing; one verification at
the end.  A driver supplies only its per-II step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..core.driver import (
    FALLBACK_OPTIONS,
    PipelineResult,
    PipelinerOptions,
    _maybe_verify,
    pipeline_loop,
)
from ..core.minii import min_ii as compute_min_ii
from ..core.sched import Schedule
from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription
from ..obs import get_recorder
from ..portfolio.answer import BackendAnswer, ProbeRecord
from ..regalloc.coloring import AllocationResult, allocate_schedule

#: The study's limit on searches for optimal schedules ("we used 3
#: minutes").  This is the *single* definition of the paper's budget;
#: experiment configurations shrink it, but every deadline flows through
#: one :class:`SolveBudget` built from the driver's ``time_limit``.
PAPER_TIME_LIMIT = 180.0


class BudgetOverrun(AssertionError):
    """A slice or a spend exceeded its grant: a bug, raised by explicit
    checks that ``python -O`` cannot strip."""


@dataclass
class SolveBudget:
    """Sole owner of an optimal driver's wall-clock budget for one loop.

    Every solver invocation asks this object for its slice; a slice can
    never exceed either the configured total or what actually remains, so
    per-order and per-backend splits and the stage-2 re-solve cannot
    overshoot the budget no matter how the knobs are set.
    """

    total: float
    started: float = field(default_factory=time.perf_counter)

    def remaining(self) -> float:
        return max(0.0, self.started + self.total - time.perf_counter())

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def slice(self, parts: int = 1, floor: float = 0.0) -> float:
        """An even ``1/parts`` share of the total, capped by what remains.

        ``floor`` lifts tiny shares (many priority orders, small budget) so
        a solve is not pointlessly invoked with microseconds — but never
        above the remaining budget.
        """
        remaining = self.remaining()
        share = min(max(self.total / max(parts, 1), floor), remaining)
        if share > self.total + 1e-9:
            raise BudgetOverrun(
                f"budget slice {share:.3f}s exceeds configured total {self.total:.3f}s"
            )
        if share > remaining + 1e-9:
            raise BudgetOverrun(
                f"budget slice {share:.3f}s exceeds remaining {remaining:.3f}s"
            )
        return share


@dataclass
class SolveStats:
    """Solver effort of one optimal-driver run, total and per backend."""

    solves: int = 0
    nodes: int = 0
    simplex_iterations: int = 0
    node_limit_hits: int = 0  # solves stopped by the node budget
    time_limit_hits: int = 0  # solves stopped by a wall-clock budget
    seconds: float = 0.0
    ii_attempts: int = 0
    per_backend: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def charge(self, answer: BackendAnswer) -> None:
        """Fold one portfolio backend answer into the totals."""
        self.solves += 1
        self.nodes += answer.nodes
        self.seconds += answer.seconds
        agg = self.per_backend.setdefault(
            answer.backend,
            {"solves": 0, "seconds": 0.0, "nodes": 0, "sat": 0, "unsat": 0, "unknown": 0},
        )
        agg["solves"] += 1
        agg["seconds"] += answer.seconds
        agg["nodes"] += answer.nodes
        agg[answer.answer] = agg.get(answer.answer, 0) + 1

    def backend_seconds(self) -> Dict[str, float]:
        return {name: agg["seconds"] for name, agg in sorted(self.per_backend.items())}


@dataclass
class OptimalResult:
    """Outcome of an optimal driver (MOST or the portfolio), possibly via fallback."""

    success: bool
    schedule: Optional[Schedule]
    allocation: Optional[AllocationResult]
    loop: Loop
    min_ii: int
    optimal: bool = False  # II-optimality proven (every smaller II infeasible)
    fallback_used: bool = False
    fallback_result: Optional[PipelineResult] = None
    stats: SolveStats = field(default_factory=SolveStats)
    buffers: Optional[int] = None  # MOST: buffer objective value, when minimised
    winning_backend: str = ""  # portfolio: the backend whose witness was used
    skipped_backends: Tuple[str, ...] = ()  # portfolio: requested but unavailable
    probes: List[ProbeRecord] = field(default_factory=list)  # portfolio probe trail
    disagreements: List[str] = field(default_factory=list)

    @property
    def ii(self) -> Optional[int]:
        return self.schedule.ii if self.schedule is not None else None

    @property
    def spill_rounds(self) -> int:
        """The optimal drivers never spill; only their heuristic fallback can."""
        fallback = self.fallback_result
        return fallback.spill_rounds if fallback is not None else 0


#: A per-II step's verdict that its II is proven infeasible.  ``None`` means
#: inconclusive; a found schedule comes back as ``(schedule, fields)``, the
#: fields being driver-specific :class:`OptimalResult` attributes.
INFEASIBLE = "infeasible"
Verdict = Union[None, str, Tuple[Schedule, Dict[str, Any]]]


def walk_ii(
    loop: Loop,
    machine: MachineDescription,
    options: Any,
    verify: Optional[bool],
    *,
    tag: str,
    formulate: Callable[[int], Any],
    solve: Callable[[Any, SolveBudget, SolveStats], Verdict],
    search: bool = True,
    **fields: Any,
) -> OptimalResult:
    """Walk the II range with one driver's per-II step; fall back if needed.

    ``options`` supplies ``time_limit``, ``max_ops``, ``ii_cap_factor`` and
    ``fallback``.  ``formulate(ii)`` returns a formulation with an
    ``infeasible`` flag that ``solve(formulation, budget, stats)`` decides.
    ``tag`` prefixes the recorder names (``<tag>.ii_attempts``,
    ``<tag>.ii``); ``search=False`` goes straight to the fallback;
    ``fields`` are set on every result.
    """
    mii = compute_min_ii(loop, machine)
    budget = SolveBudget(total=options.time_limit)
    stats = SolveStats()
    rec = get_recorder()
    if search and loop.n_ops <= options.max_ops:
        # MinII itself is a hard lower bound, so the proof chain starts whole.
        smaller_proven_infeasible = True
        for ii in range(mii, options.ii_cap_factor * mii + 1):
            if budget.expired():
                break
            stats.ii_attempts += 1
            if rec.enabled:
                rec.counter(f"{tag}.ii_attempts")
                rec.event(f"{tag}.ii", loop=loop.name, ii=ii)
            formulation = formulate(ii)
            if formulation.infeasible:
                continue  # proven infeasible at this II (window collapse)
            verdict = solve(formulation, budget, stats)
            if verdict is None:
                smaller_proven_infeasible = False
                continue  # inconclusive at this II; try the next
            if verdict == INFEASIBLE:
                continue
            schedule, found = verdict
            allocation = allocate_schedule(schedule, machine)
            if allocation.success:
                result = OptimalResult(
                    True, schedule, allocation, loop, mii,
                    optimal=smaller_proven_infeasible, stats=stats, **fields, **found,
                )
                return _maybe_verify(result, machine, verify)
            # Register allocation failed at this II: a larger II shortens
            # relative lifetimes, so keep walking the II range before
            # resorting to the heuristic fallback.
            smaller_proven_infeasible = False

    if not options.fallback:
        return OptimalResult(False, None, None, loop, mii, stats=stats, **fields)
    # verify=False here: the wrapping result is verified below instead, so
    # the fallback schedule is not checked twice.
    fallback = pipeline_loop(
        loop, machine, PipelinerOptions.from_dict(FALLBACK_OPTIONS), verify=False
    )
    result = OptimalResult(
        fallback.success, fallback.schedule, fallback.allocation, fallback.loop, mii,
        fallback_used=True, fallback_result=fallback, stats=stats, **fields,
    )
    return _maybe_verify(result, machine, verify)
