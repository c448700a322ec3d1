"""The MOST driver: optimal modulo scheduling via ILP with fallbacks.

Mirrors the adjusted McGill methodology of Section 3.3:

1. a *resource-constrained* schedule is sought first (the integrated
   register-optimal formulation was too slow to be usable);
2. a second solve minimises *buffers* — iteration overlap — under a time
   limit, accepting the best suboptimal solution found;
3. the solver's branch order follows the same multiple priority-order
   heuristics as the SGI pipeliner, tried in turn until one solves;
4. the heuristic pipeliner backs the whole thing up (Section 4.4): not
   every loop the SGI pipeliner schedules is reachable by MOST in
   reasonable time.

MOST is the shared II walk (:mod:`repro.most.walk`) with one probe entry
per production order, each the ILP backend
(:func:`repro.portfolio.ilp_backend.solve_ilp`) branching on that order
over the II's one encoding; :func:`~repro.most.walk.probe_ii` gives the
orders even budget slices and stops at the first definitive answer, as it
does for the portfolio's backends.  Stage 2 is the only MOST-specific
step: a re-solve of the winning II for the secondary objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..core.driver import options_from_mapping
from ..core.priorities import production_orders
from ..core.sched import Schedule
from ..ilp.model import ENGINES
from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription, r8000
from ..obs import get_recorder
from ..portfolio.answer import SAT, BackendAnswer, ProbeRecord
from ..portfolio.formulation import check_witness
from ..portfolio.ilp_backend import load_ilp_solver, solve_ilp
from .formulation import ScheduleFormulation, build_formulation, model_from_formulation
from .walk import (
    PAPER_TIME_LIMIT,
    OptimalResult,
    SolveBudget,
    SolveStats,
    Verdict,
    probe_ii,
    walk_ii,
)

#: The secondary objectives of stage 2: buffers (§3.3) or, as the
#: extension of §5, the stage count that loop overhead scales with.
OBJECTIVES = ("buffers", "overhead")


@dataclass
class MostOptions:
    """Configuration of the optimal pipeliner."""

    # Per-loop search budget; defaults to the paper's three minutes
    # (experiment configurations pass their own, much smaller, value).
    time_limit: float = PAPER_TIME_LIMIT
    minimize_buffers: bool = True
    # "overhead": minimise the stage count instead of buffers — the ILP
    # objective the paper's conclusions propose as future work (§5).
    objective: str = "buffers"
    integrated: bool = False  # single integrated solve (ablation, §3.3 adj. 1)
    engine: str = "bnb"  # "bnb" (ours) or "scipy" (HiGHS)
    priority_branching: bool = True  # §3.3 adjustment 3
    max_ops: int = 80  # loops beyond this go straight to the fallback
    ii_cap_factor: int = 2
    stages: Optional[int] = None
    fallback: bool = True  # use the heuristic pipeliner as backup
    max_nodes: int = 200_000

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown MOST engine {self.engine!r} (known: {', '.join(ENGINES)})"
            )
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown MOST objective {self.objective!r} (known: {', '.join(OBJECTIVES)})"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MostOptions":
        """Build options from a JSON-style mapping (the repro.exec cell form)."""
        return options_from_mapping(cls, data)


def most_pipeline_loop(
    loop: Loop,
    machine: Optional[MachineDescription] = None,
    options: Optional[MostOptions] = None,
) -> OptimalResult:
    """Schedule ``loop`` with the ILP pipeliner, falling back to heuristics."""
    machine = machine if machine is not None else r8000()
    options = options or MostOptions()
    # §3.3 adjustment 3: the SGI production orders as branch orders, in turn.
    orders: List[Optional[List[int]]] = (
        list(production_orders(loop, machine).values())
        if options.priority_branching
        else [None]
    )

    def formulate(ii: int) -> ScheduleFormulation:
        return build_formulation(
            loop, machine, ii, stages=options.stages, minimize_buffers=options.integrated
        )

    def entry(encoded: ScheduleFormulation, order: Optional[Sequence[int]]):
        # Stage 1 is a feasibility question: the first schedule wins.
        return lambda limit: solve_ilp(
            encoded, loop, time_limit=limit, max_nodes=options.max_nodes,
            engine=options.engine, branch_priority=order,
            first_solution=not options.integrated,
        )

    def solve(
        encoded: ScheduleFormulation,
        budget: SolveBudget,
        stats: SolveStats,
        probes: List[ProbeRecord],
    ) -> Verdict:
        entries = [("ilp", entry(encoded, order)) for order in orders]
        winner = probe_ii(encoded.neutral, entries, budget, stats, probes, tag="most")
        if not isinstance(winner, BackendAnswer):
            return winner
        times = dict(winner.times or {})
        buffers: Optional[int] = None
        if options.integrated and winner.objective is not None:
            buffers = int(round(winner.objective))
        if options.minimize_buffers and not options.integrated:
            # Cap the secondary solve so one II cannot starve the rest of
            # the II range of solver time: at most a third of the budget,
            # and never more than remains of it.
            times, buffers = _optimise_secondary(
                encoded, machine, times, orders[0], options, stats, budget.slice(parts=3)
            )
        schedule = Schedule(
            loop=loop, machine=machine, ii=encoded.ii, times=times, producer="most/ilp"
        )
        return schedule, {"buffers": buffers, "winning_backend": winner.backend}

    load_ilp_solver()
    return walk_ii(loop, machine, options, tag="most", formulate=formulate, solve=solve)


def _optimise_secondary(
    first: ScheduleFormulation,
    machine: MachineDescription,
    initial_times: Dict[int, int],
    order: Optional[Sequence[int]],
    options: MostOptions,
    stats: SolveStats,
    time_limit: float,
):
    """Stage 2: re-solve the stage-1 II with the secondary objective.

    Keeps the stage-1 schedule when the solver cannot improve on it in
    time ("it would accept the best suboptimal solution found, if any").
    The objective is buffers (§3.3) or the stage count (§5); the model
    re-encodes stage 1's neutral formulation.  ``time_limit`` is the slice
    of the loop's :class:`SolveBudget` this stage may consume.
    """
    if time_limit <= 0.5:
        return initial_times, None
    loop, ii, neutral = first.loop, first.ii, first.neutral
    # The stage-1 schedule is a feasible incumbent: its own objective value
    # is a sound cutoff that prunes most of the minimisation tree.
    incumbent = Schedule(
        loop=loop, machine=machine, ii=ii, times=dict(initial_times), producer="most/stage1"
    )
    if options.objective == "overhead":
        encoded = model_from_formulation(
            neutral, loop, minimize_overhead=True, overhead_cutoff=incumbent.n_stages
        )
    else:
        encoded = model_from_formulation(
            neutral, loop, minimize_buffers=True, buffer_cutoff=incumbent.buffer_count()
        )
    with get_recorder().span("most.secondary", loop=loop.name, ii=ii):
        answer = solve_ilp(
            encoded, loop, time_limit=time_limit, max_nodes=options.max_nodes,
            engine=options.engine, branch_priority=order, first_solution=False,
        )
    stats.charge(answer)
    if answer.answer == SAT and not check_witness(neutral, answer.times or {}):
        return dict(answer.times or {}), int(round(answer.objective))
    return initial_times, None
