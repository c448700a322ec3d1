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
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from ..core.driver import options_from_mapping
from ..core.priorities import production_orders
from ..core.sched import Schedule
from ..ilp.solver import MILPResult, SolverOptions, Status, solve_milp
from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription, r8000
from ..obs import get_recorder
from .formulation import ScheduleFormulation, build_formulation
from .walk import (
    INFEASIBLE,
    PAPER_TIME_LIMIT,
    OptimalResult,
    SolveBudget,
    SolveStats,
    Verdict,
    walk_ii,
)


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
    # Print one line per ILP solve (nodes, simplex iterations, MIP gap,
    # which budget stopped it) to stderr — the human-readable face of the
    # counters :class:`SolveStats` accumulates.
    log_solves: bool = False

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MostOptions":
        """Build options from a JSON-style mapping (the repro.exec cell form)."""
        return options_from_mapping(cls, data)


def _account_solve(
    stats: SolveStats, options: MostOptions, context: str, result: MILPResult
) -> None:
    """Fold one solver result into the stats; optionally log it."""
    stats.solves += 1
    stats.nodes += result.nodes
    stats.simplex_iterations += result.simplex_iterations
    stats.node_limit_hits += int(result.limit == "nodes")
    stats.time_limit_hits += int(result.limit in ("time", "budget"))
    stats.seconds += result.seconds
    if options.log_solves:
        gap = "-" if result.mip_gap is None else f"{result.mip_gap:.4f}"
        print(
            f"[most] {context}: status={result.status.value} nodes={result.nodes} "
            f"simplex={result.simplex_iterations} gap={gap} "
            f"limit={result.limit or 'none'} {result.seconds:.2f}s",
            file=sys.stderr,
        )


def _solve_with_orders(
    formulation: ScheduleFormulation,
    loop: Loop,
    machine: MachineDescription,
    options: MostOptions,
    stats: SolveStats,
    budget: SolveBudget,
) -> Optional[MILPResult]:
    """Solve one formulation, trying each SGI priority order as the branch
    order until a solution appears (§3.3 adjustment 3)."""
    orders: List[Optional[List[int]]]
    if options.priority_branching:
        orders = [
            formulation.branch_priority(order)
            for order in production_orders(loop, machine).values()
        ]
    else:
        orders = [None]
    rec = get_recorder()
    for order_index, branch_priority in enumerate(orders):
        remaining = budget.remaining()
        if remaining <= 0:
            return None
        slice_seconds = (
            remaining
            if len(orders) == 1
            else budget.slice(parts=len(orders), floor=1.0)
        )
        if rec.enabled:
            rec.counter("most.budget_slice_seconds", slice_seconds)
        solver_options = SolverOptions(
            time_limit=slice_seconds,
            branch_priority=branch_priority,
            engine=options.engine,
            max_nodes=options.max_nodes,
            # Stage 1 is a feasibility question: the first schedule wins.
            first_solution=not options.integrated,
            branch_up_first=branch_priority is not None,
        )
        with rec.span(
            "most.solve",
            loop=loop.name,
            order=order_index,
            slice_seconds=round(slice_seconds, 3),
        ):
            result = solve_milp(formulation.model, solver_options)
        _account_solve(stats, options, f"{loop.name} order#{order_index}", result)
        if result.status is Status.INFEASIBLE:
            return result  # proven: no order can help
        if result.has_solution:
            return result
    return None


def most_pipeline_loop(
    loop: Loop,
    machine: Optional[MachineDescription] = None,
    options: Optional[MostOptions] = None,
    verify: Optional[bool] = None,
) -> OptimalResult:
    """Schedule ``loop`` with the ILP pipeliner, falling back to heuristics.

    ``verify`` cross-checks successful results with the independent
    ``repro.verify`` analyzers (``None`` = process default); ERROR
    diagnostics raise :class:`repro.verify.VerificationError`.
    """
    machine = machine if machine is not None else r8000()
    options = options or MostOptions()

    def formulate(ii: int) -> ScheduleFormulation:
        return build_formulation(
            loop, machine, ii, stages=options.stages, minimize_buffers=options.integrated
        )

    def solve(
        formulation: ScheduleFormulation, budget: SolveBudget, stats: SolveStats
    ) -> Verdict:
        result = _solve_with_orders(formulation, loop, machine, options, stats, budget)
        if result is None:
            return None
        if result.status is Status.INFEASIBLE:
            return INFEASIBLE
        ii = formulation.ii
        times = formulation.decode_times(result)
        buffers: Optional[int] = None
        if options.integrated and result.objective is not None:
            buffers = int(round(result.objective))
        if options.minimize_buffers and not options.integrated:
            # Cap the secondary solve so one II cannot starve the rest of
            # the II range of solver time: at most a third of the budget,
            # and never more than remains of it.
            times, buffers = _optimise_secondary(
                loop, machine, ii, times, options, stats, budget.slice(parts=3)
            )
        schedule = Schedule(
            loop=loop, machine=machine, ii=ii, times=times, producer="most/ilp"
        )
        return schedule, {"buffers": buffers}

    return walk_ii(
        loop, machine, options, verify, tag="most", formulate=formulate, solve=solve
    )


def _optimise_secondary(
    loop: Loop,
    machine: MachineDescription,
    ii: int,
    initial_times: Dict[int, int],
    options: MostOptions,
    stats: SolveStats,
    time_limit: float,
):
    """Stage 2: re-solve with the secondary objective under the budget.

    Keeps the stage-1 schedule when the solver cannot improve on it in
    time ("it would accept the best suboptimal solution found, if any").
    The objective is buffers (§3.3) or, as the extension of §5, the stage
    count that loop overhead scales with.  ``time_limit`` is the slice of
    the loop's :class:`SolveBudget` this stage may consume.
    """
    if time_limit <= 0.5:
        return initial_times, None
    # The stage-1 schedule is a feasible incumbent: its own objective value
    # is a sound cutoff that prunes most of the minimisation tree.
    incumbent = Schedule(
        loop=loop, machine=machine, ii=ii, times=dict(initial_times), producer="most/stage1"
    )
    if options.objective == "overhead":
        formulation = build_formulation(
            loop,
            machine,
            ii,
            stages=options.stages,
            minimize_overhead=True,
            overhead_cutoff=incumbent.n_stages,
        )
    else:
        formulation = build_formulation(
            loop,
            machine,
            ii,
            stages=options.stages,
            minimize_buffers=True,
            buffer_cutoff=incumbent.buffer_count(),
        )
    if formulation.infeasible:
        return initial_times, None
    solver_options = SolverOptions(
        time_limit=time_limit,
        branch_priority=(
            formulation.branch_priority(
                next(iter(production_orders(loop, machine).values()))
            )
            if options.priority_branching
            else None
        ),
        engine=options.engine,
        max_nodes=options.max_nodes,
        branch_up_first=options.priority_branching,
    )
    with get_recorder().span("most.secondary", loop=loop.name, ii=ii):
        result = solve_milp(formulation.model, solver_options)
    _account_solve(stats, options, f"{loop.name} stage2@II={ii}", result)
    if result.has_solution:
        return formulation.decode_times(result), int(round(result.objective))
    return initial_times, None
