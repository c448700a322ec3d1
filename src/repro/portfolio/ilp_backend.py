"""The ILP backend: the one place outside :mod:`repro.ilp` that solves a model.

A thin adapter — the encoding lives in :mod:`repro.most.formulation`
(:func:`~repro.most.formulation.build_formulation`, built *from* the
neutral formulation, so all backends answer the same object) and the solve
in :mod:`repro.ilp.solver`.  Every ILP solve in the program comes through
:func:`solve_ilp`: the optimal walk's ``ilp`` probe entries and its stage-2
re-solve.  Status mapping is the portfolio's three-valued contract:
OPTIMAL/FEASIBLE -> sat (with decoded times and the objective value),
INFEASIBLE -> unsat, UNSOLVED (budget) -> unknown.

The solver import stays inside the function, so a process that never
solves an ILP never loads numpy or scipy.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Optional, Sequence

from .answer import SAT, UNKNOWN, UNSAT, BackendAnswer

if TYPE_CHECKING:
    from ..most.formulation import ScheduleFormulation


def load_ilp_solver() -> None:
    """Import :mod:`repro.ilp.solver`, and with it numpy and scipy, now.

    An optimal driver calls this before its
    :class:`~repro.most.walk.SolveBudget` starts: the first import costs
    about half a second, which inside the walk would come out of the
    loop's wall-clock budget.
    """
    importlib.import_module("..ilp.solver", __package__)


def solve_ilp(
    encoded: ScheduleFormulation,
    time_limit: Optional[float] = None,
    max_nodes: int = 200_000,
    engine: str = "bnb",
    branch_priority: Optional[Sequence[int]] = None,
    first_solution: bool = True,
) -> BackendAnswer:
    """Answer one ILP encoding of a formulation.

    ``encoded`` comes from :func:`~repro.most.formulation.build_formulation`
    (one encoding per II, solved once per branch order, or re-encoded with
    a secondary objective).  ``branch_priority`` optionally carries an SGI
    production order of op indices (§3.3 adjustment 3).
    ``first_solution`` stops at the first integral solution — a
    feasibility question; False minimises the model's objective.
    """
    from ..ilp.solver import SolverOptions, Status, solve_milp

    if encoded.infeasible:
        return BackendAnswer(
            backend="ilp", answer=UNSAT, detail=encoded.neutral.infeasible_reason
        )
    priority = (
        encoded.branch_priority(branch_priority)
        if branch_priority is not None
        else None
    )
    # The B&B compares the wall clock against time_limit directly, so a
    # "no limit" request becomes the solver's own generous default.
    if time_limit is None:
        time_limit = SolverOptions.time_limit
    options = SolverOptions(
        time_limit=time_limit,
        max_nodes=max_nodes,
        branch_priority=priority,
        engine=engine,
        first_solution=first_solution,
    )
    result = solve_milp(encoded.model, options)
    if result.status is Status.INFEASIBLE:
        return BackendAnswer(
            backend="ilp", answer=UNSAT, seconds=result.seconds, nodes=result.nodes
        )
    if result.has_solution:
        return BackendAnswer(
            backend="ilp",
            answer=SAT,
            times=encoded.decode_times(result),
            seconds=result.seconds,
            nodes=result.nodes,
            objective=result.objective,
        )
    return BackendAnswer(
        backend="ilp",
        answer=UNKNOWN,
        seconds=result.seconds,
        nodes=result.nodes,
        detail=f"limit={result.limit or 'none'}",
    )
