"""MILP solving: LP-relaxation branch-and-bound with time limits.

The solver mirrors what the paper's study needed from its "standard ILP
solving packages" (Section 3.3):

* hard per-solve *time limits*, returning the best incumbent found;
* *priority-guided branching* — "the priority order in which the ILP
  solver traverses the branch-and-bound tree is by far the most important
  factor affecting whether it could solve the problem";
* proven optimality when the search completes.

The linear relaxations are solved with scipy's HiGHS ``linprog``.  A
``scipy`` engine using :func:`scipy.optimize.milp` directly is provided for
cross-checking our branch-and-bound on small instances.

This is the only module of the package that imports numpy or scipy
(``tests/test_import_boundary.py`` holds that line), so a process loads
them only once it solves an ILP.  Optimal drivers import this module
before their :class:`~repro.most.walk.SolveBudget` starts, so the import
never spends a loop's wall-clock budget.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize, sparse

from ..obs import get_recorder
from .model import ENGINES, Model, Sense

INT_TOL = 1e-6


class Status(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # incumbent found, optimality not proven (time/node limit)
    INFEASIBLE = "infeasible"
    UNSOLVED = "unsolved"  # limit hit with no incumbent


@dataclass
class MILPResult:
    status: Status
    x: Optional[np.ndarray]
    objective: Optional[float]
    nodes: int = 0
    seconds: float = 0.0
    # Search-effort accounting, from both engines: total simplex (LP)
    # iterations, the final MIP gap ((incumbent - bound)/|incumbent|; 0.0
    # when optimality is proven, None with no incumbent), and which budget
    # stopped the search ("time", "nodes", scipy's undifferentiated
    # "budget", or None when it ran to completion).
    simplex_iterations: int = 0
    mip_gap: Optional[float] = None
    limit: Optional[str] = None

    @property
    def has_solution(self) -> bool:
        return self.x is not None

    def value(self, var) -> float:
        return float(self.x[var.index])


@dataclass
class SolverOptions:
    time_limit: float = 60.0
    max_nodes: int = 200_000
    # Variable indices in preferred branching order, each explored ceil
    # ("place it") branch first, which suits time-indexed scheduling models
    # driven by a priority order; unlisted variables are branched on by
    # maximum fractionality.
    branch_priority: Optional[Sequence[int]] = None
    engine: str = "bnb"  # "bnb" (ours) or "scipy" (HiGHS MILP)
    # Stop at the first integral solution (feasibility problems).
    first_solution: bool = False


def to_arrays(
    model: Model,
    extra_bounds: Optional[Dict[int, Tuple[float, Optional[float]]]] = None,
):
    """Convert ``model`` to (c, A_ub, b_ub, A_eq, b_eq, bounds) for the LP engine.

    ``extra_bounds`` lets a branch-and-bound driver tighten variable
    bounds per node without copying the model.
    """
    n = model.n_vars
    c = np.zeros(n)
    for idx, coeff in model.objective.items():
        c[idx] = coeff
    if not model.minimize:
        c = -c

    ub_rows: List[Dict[int, float]] = []
    ub_rhs: List[float] = []
    eq_rows: List[Dict[int, float]] = []
    eq_rhs: List[float] = []
    for con in model.constraints:
        if con.sense is Sense.LE:
            ub_rows.append(con.coeffs)
            ub_rhs.append(con.rhs)
        elif con.sense is Sense.GE:
            ub_rows.append({i: -v for i, v in con.coeffs.items()})
            ub_rhs.append(-con.rhs)
        else:
            eq_rows.append(con.coeffs)
            eq_rhs.append(con.rhs)

    def build(rows: List[Dict[int, float]]):
        if not rows:
            return None
        data, ri, ci = [], [], []
        for r, row in enumerate(rows):
            for col, val in row.items():
                data.append(val)
                ri.append(r)
                ci.append(col)
        return sparse.csr_matrix((data, (ri, ci)), shape=(len(rows), n))

    bounds = []
    for v in model.variables:
        lo, hi = v.lb, v.ub
        if extra_bounds and v.index in extra_bounds:
            extra_lo, extra_hi = extra_bounds[v.index]
            lo = max(lo, extra_lo)
            if extra_hi is not None:
                hi = extra_hi if hi is None else min(hi, extra_hi)
        bounds.append((lo, hi))
    return (
        c,
        build(ub_rows),
        np.array(ub_rhs) if ub_rhs else None,
        build(eq_rows),
        np.array(eq_rhs) if eq_rhs else None,
        bounds,
    )


def _solve_lp(model: Model, extra_bounds: Dict[int, Tuple[float, Optional[float]]]):
    c, A_ub, b_ub, A_eq, b_eq, bounds = to_arrays(model, extra_bounds)
    return optimize.linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )


def solve_milp(model: Model, options: Optional[SolverOptions] = None) -> MILPResult:
    options = options or SolverOptions()
    if options.engine not in ENGINES:
        raise ValueError(f"unknown ILP engine {options.engine!r} (known: {', '.join(ENGINES)})")
    rec = get_recorder()
    with rec.span("ilp.solve", engine=options.engine, n_vars=model.n_vars):
        if options.engine == "scipy":
            result = _solve_with_scipy(model, options)
        else:
            result = _solve_with_bnb(model, options)
    if rec.enabled:
        rec.counter("ilp.solves")
        rec.counter("ilp.nodes", result.nodes)
        rec.counter("ilp.simplex_iters", result.simplex_iterations)
        if result.limit == "nodes":
            rec.counter("ilp.node_limit_hits")
        elif result.limit is not None:
            rec.counter("ilp.time_limit_hits")
        rec.event(
            "ilp.result",
            status=result.status.value,
            nodes=result.nodes,
            simplex_iters=result.simplex_iterations,
            mip_gap=result.mip_gap,
            limit=result.limit,
            seconds=result.seconds,
        )
    return result


def _solve_with_scipy(model: Model, options: SolverOptions) -> MILPResult:
    start = time.perf_counter()
    c, A_ub, b_ub, A_eq, b_eq, bounds = to_arrays(model)
    constraints = []
    if A_ub is not None:
        constraints.append(optimize.LinearConstraint(A_ub, -np.inf, b_ub))
    if A_eq is not None:
        constraints.append(optimize.LinearConstraint(A_eq, b_eq, b_eq))
    integrality = np.zeros(model.n_vars)
    for idx in model.integer_indices():
        integrality[idx] = 1
    lb = np.array([b[0] for b in bounds])
    ub = np.array([b[1] if b[1] is not None else np.inf for b in bounds])
    res = optimize.milp(
        c,
        constraints=constraints,
        integrality=integrality,
        bounds=optimize.Bounds(lb, ub),
        # The node limit is the *deterministic* budget: identical models
        # stop at identical search states regardless of machine load.  The
        # wall-clock limit stays as the hard backstop.
        options={"time_limit": options.time_limit, "node_limit": options.max_nodes},
    )
    elapsed = time.perf_counter() - start
    # HiGHS reports its node count and final gap on the result object;
    # older scipy builds may omit them, so degrade to safe defaults.
    nodes = int(getattr(res, "mip_node_count", 0) or 0)
    gap = getattr(res, "mip_gap", None)
    gap = float(gap) if gap is not None and math.isfinite(gap) else None
    # status 1 is scipy's undifferentiated iteration/time budget stop.
    limit = "budget" if res.status == 1 else None
    if res.status == 0:
        sign = 1.0 if model.minimize else -1.0
        return MILPResult(
            Status.OPTIMAL, res.x, sign * res.fun, nodes=nodes, seconds=elapsed,
            mip_gap=0.0 if gap is None else gap, limit=limit,
        )
    if res.x is not None:
        sign = 1.0 if model.minimize else -1.0
        return MILPResult(
            Status.FEASIBLE, res.x, sign * res.fun, nodes=nodes, seconds=elapsed,
            mip_gap=gap, limit=limit,
        )
    if res.status == 2:
        return MILPResult(Status.INFEASIBLE, None, None, nodes=nodes, seconds=elapsed)
    return MILPResult(
        Status.UNSOLVED, None, None, nodes=nodes, seconds=elapsed, limit=limit
    )


def _branch_variable(
    x: np.ndarray,
    integer_indices: Sequence[int],
    priority: Optional[Sequence[int]],
) -> Optional[int]:
    """Pick the variable to branch on: first fractional in priority order,
    else the most fractional integer variable."""
    if priority is not None:
        for idx in priority:
            frac = x[idx] - math.floor(x[idx] + INT_TOL)
            if frac > INT_TOL and frac < 1 - INT_TOL:
                return idx
    best, best_score = None, 0.0
    for idx in integer_indices:
        frac = x[idx] - math.floor(x[idx])
        score = min(frac, 1 - frac)
        if score > INT_TOL and score > best_score:
            best, best_score = idx, score
    return best


def _solve_with_bnb(model: Model, options: SolverOptions) -> MILPResult:
    """Depth-first branch-and-bound over LP relaxations."""
    start = time.perf_counter()
    integer_indices = model.integer_indices()
    sign = 1.0 if model.minimize else -1.0

    incumbent_x: Optional[np.ndarray] = None
    incumbent_obj = math.inf  # in minimisation space
    nodes = 0
    simplex_iters = 0
    root_bound: Optional[float] = None  # root LP relaxation: global lower bound
    # Each stack entry: extra bound dict for this node.
    stack: List[Dict[int, Tuple[float, Optional[float]]]] = [{}]
    timed_out = False
    limit: Optional[str] = None

    while stack:
        if time.perf_counter() - start > options.time_limit:
            timed_out, limit = True, "time"
            break
        if nodes >= options.max_nodes:
            timed_out, limit = True, "nodes"
            break
        bounds = stack.pop()
        nodes += 1
        res = _solve_lp(model, bounds)
        simplex_iters += int(getattr(res, "nit", 0) or 0)
        if res.status != 0:
            continue  # infeasible or unbounded subproblem: prune
        lp_obj = res.fun  # minimisation space (to_arrays flips sign)
        if root_bound is None:
            root_bound = lp_obj
        if lp_obj >= incumbent_obj - 1e-9:
            continue  # bound prune
        x = res.x
        branch = _branch_variable(x, integer_indices, options.branch_priority)
        if branch is None:
            incumbent_x = np.round(x[:])
            # Keep continuous vars unrounded.
            for v in model.variables:
                if not v.integer:
                    incumbent_x[v.index] = x[v.index]
            incumbent_obj = lp_obj
            if options.first_solution:
                elapsed = time.perf_counter() - start
                return MILPResult(
                    Status.FEASIBLE, incumbent_x, sign * incumbent_obj,
                    nodes=nodes, seconds=elapsed,
                    simplex_iterations=simplex_iters,
                    mip_gap=_gap(incumbent_obj, root_bound),
                )
            continue
        value = x[branch]
        floor_v, ceil_v = math.floor(value), math.ceil(value)
        down = dict(bounds)
        lo, hi = down.get(branch, (-math.inf, None))
        down[branch] = (lo, float(floor_v) if hi is None else min(hi, float(floor_v)))
        up = dict(bounds)
        lo, hi = up.get(branch, (-math.inf, None))
        up[branch] = (max(lo, float(ceil_v)), hi)
        # Depth-first; the stack top is explored next.  Scheduling models
        # driven by a priority order do best placing the variable (ceil
        # side) first; otherwise explore the side nearer the LP value.
        if options.branch_priority is not None or value - floor_v > 0.5:
            stack.append(down)
            stack.append(up)
        else:
            stack.append(up)
            stack.append(down)

    elapsed = time.perf_counter() - start
    if incumbent_x is None:
        status = Status.UNSOLVED if timed_out else Status.INFEASIBLE
        return MILPResult(
            status, None, None, nodes=nodes, seconds=elapsed,
            simplex_iterations=simplex_iters, limit=limit,
        )
    status = Status.FEASIBLE if (timed_out or stack) else Status.OPTIMAL
    return MILPResult(
        status, incumbent_x, sign * incumbent_obj, nodes=nodes, seconds=elapsed,
        simplex_iterations=simplex_iters,
        mip_gap=0.0 if status is Status.OPTIMAL else _gap(incumbent_obj, root_bound),
        limit=limit if timed_out else None,
    )


def _gap(incumbent_obj: float, bound: Optional[float]) -> Optional[float]:
    """Relative MIP gap of an incumbent against a proven lower bound.

    The root LP relaxation is the bound our depth-first search carries, so
    this gap is conservative (an exhaustive solver would tighten it as the
    tree closes); ``None`` when no bound was ever established.
    """
    if bound is None:
        return None
    return max(0.0, (incumbent_obj - bound) / max(abs(incumbent_obj), 1e-9))
