"""Time-indexed ILP formulation of modulo scheduling (Section 3).

For a candidate II and a horizon of ``T = K * II`` cycles, binary variables
``a[i, t]`` select the issue cycle of each operation in the first iteration:

* assignment:   sum_t a[i, t] == 1                       (each op once)
* sigma_i = sum_t t * a[i, t]                            (issue time)
* dependence:   sigma_j - sigma_i >= latency - II*omega  (for every arc)
* resources:    for each modulo slot m and resource r,
                sum over ops and reservation offsets landing in slot m
                of a[i, t] * count <= availability(r)

Variable domains are tightened to the ASAP/ALAP windows implied by the
dependence graph at this II — a standard reduction that leaves the set of
feasible schedules untouched while shrinking the model dramatically.

The windows, arcs and modulo resource rows themselves live in the
backend-neutral :class:`repro.portfolio.formulation.ModuloFormulation`;
this module is *one encoding of it* (the others are the CP and SMT
backends of :mod:`repro.portfolio`).  The split keeps cross-backend
agreement meaningful: every backend answers literally the same object.

The *resource-constrained* formulation stops there (adjustment 1 of
Section 3.3: the integrated register-optimal formulation was "just too
slow").  The *buffer-minimisation* objective (adjustment 2) adds integer
buffer counts per value, ``II * b_v >= sigma_j - sigma_i + II*omega`` for
each consumer, and minimises their sum — which "directly translates into
the reduction of the number of iterations overlapped".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ilp.model import Model, Sense, Var
from ..portfolio.formulation import ModuloFormulation, default_horizon_stages

__all__ = [
    "OBJECTIVES",
    "ScheduleFormulation",
    "build_formulation",
    "default_horizon_stages",
]

#: The secondary objectives an encoding can minimise: buffers (§3.3) or,
#: as the extension of §5, the stage count that loop overhead scales
#: with.  None is stage 1's plain resource-constrained model.
OBJECTIVES = (None, "buffers", "overhead")


@dataclass
class ScheduleFormulation:
    """An ILP model plus the bookkeeping to decode its solutions."""

    model: Model
    neutral: ModuloFormulation  # what this model encodes (witness checks, re-encodes)
    ii: int
    horizon: int
    assign: Dict[Tuple[int, int], Var]  # (op, t) -> binary variable
    buffers: Dict[str, Var] = field(default_factory=dict)  # value -> buffer count

    @property
    def infeasible(self) -> bool:
        """ASAP/ALAP windows collapsed at this horizon."""
        return self.neutral.infeasible

    @property
    def infeasible_reason(self) -> str:
        return self.neutral.infeasible_reason

    def decode_times(self, result) -> Dict[int, int]:
        """Extract issue cycles from a solved model."""
        times: Dict[int, int] = {}
        for (op, t), var in self.assign.items():
            if result.value(var) > 0.5:
                times[op] = t
        missing = set(range(self.neutral.n_ops)) - set(times)
        if missing:
            raise ValueError(f"solution does not place ops {sorted(missing)}")
        return times

    def branch_priority(self, op_order: List[int]) -> List[int]:
        """Variable indices in SGI-priority-then-time order (§3.3 adj. 3)."""
        priority: List[int] = []
        for op in op_order:
            for t in range(self.horizon):
                var = self.assign.get((op, t))
                if var is not None:
                    priority.append(var.index)
        return priority


def build_formulation(
    neutral: ModuloFormulation,
    objective: Optional[str] = None,
    cutoff: Optional[int] = None,
) -> ScheduleFormulation:
    """Encode one neutral formulation as the time-indexed ILP.

    With no ``objective`` the model is the resource-constrained stage 1:
    a feasibility question whose compactness objective only helps the
    search.  ``"buffers"`` reproduces MOST's adjusted objective (§3.3);
    ``"overhead"`` implements the paper's closing suggestion — "an ILP
    formulation ... that optimizes loop overhead more directly than by
    optimizing register usage" (§5) — by minimising the pipeline's stage
    count ``S >= (sigma_i + 1) / II``, which is what fill/drain cost scales
    with.  ``cutoff`` bounds that objective from above, a sound bound from
    an already-known feasible schedule and a large help to the
    branch-and-bound.

    Variable and constraint order follow the neutral object's op, window
    and arc order exactly, which themselves follow the loop's DDG, so the
    branch-and-bound explores the same tree on every call.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r} (known: {OBJECTIVES})")
    ii = neutral.ii
    stages = neutral.stages
    horizon = neutral.horizon
    model = Model(name=f"most-{neutral.loop_name}-ii{ii}")

    if neutral.infeasible:
        return ScheduleFormulation(
            model=model, neutral=neutral, ii=ii, horizon=horizon, assign={}
        )
    windows = neutral.windows

    assign: Dict[Tuple[int, int], Var] = {}
    for op in range(neutral.n_ops):
        lo, hi = windows[op]
        for t in range(lo, hi + 1):
            assign[(op, t)] = model.add_var(f"a[{op},{t}]", binary=True)

    def domain(op: int):
        lo, hi = windows[op]
        return range(lo, hi + 1)

    # Each operation scheduled exactly once.
    for op in range(neutral.n_ops):
        model.add_constraint(
            {assign[(op, t)]: 1.0 for t in domain(op)},
            Sense.EQ,
            1.0,
            name=f"assign[{op}]",
        )

    # Dependence arcs: sigma_j - sigma_i >= latency - II*omega.
    for arc in neutral.arcs:
        if arc.src == arc.dst:
            continue  # handled by the feasibility screen in the neutral build
        coeffs: Dict[Var, float] = {}
        for t in domain(arc.dst):
            var = assign[(arc.dst, t)]
            coeffs[var] = coeffs.get(var, 0.0) + t
        for t in domain(arc.src):
            var = assign[(arc.src, t)]
            coeffs[var] = coeffs.get(var, 0.0) - t
        model.add_constraint(
            coeffs,
            Sense.GE,
            arc.weight(ii),
            name=f"dep[{arc.src}->{arc.dst}]",
        )

    # Modulo resource constraints.
    for slot in range(ii):
        demand: Dict[str, Dict[Var, float]] = {}
        for op in range(neutral.n_ops):
            for offset, resource, count in neutral.op_uses[op]:
                for t in domain(op):
                    if (t + offset) % ii != slot:
                        continue
                    row = demand.setdefault(resource, {})
                    var = assign[(op, t)]
                    row[var] = row.get(var, 0.0) + count
        for resource, row in demand.items():
            model.add_constraint(
                row,
                Sense.LE,
                neutral.availability[resource],
                name=f"res[{resource}@{slot}]",
            )

    def lifetime_tiebreak(costs: Dict[Var, float]) -> None:
        """Add a < 1-total lifetime term: prefer register-friendly optima."""
        flow_arcs = [
            arc for arc in neutral.flow_value_arcs() if arc.src != arc.dst
        ]
        if not flow_arcs:
            return
        epsilon = 0.9 / (len(flow_arcs) * (horizon + 1) + 1)
        for arc in flow_arcs:
            for t in domain(arc.dst):
                var = assign[(arc.dst, t)]
                costs[var] = costs.get(var, 0.0) + epsilon * t
            for t in domain(arc.src):
                var = assign[(arc.src, t)]
                costs[var] = costs.get(var, 0.0) - epsilon * t

    buffers: Dict[str, Var] = {}
    if objective == "overhead":
        # S >= (sigma_i + 1) / II for every op; minimise S (the number of
        # pipestages), i.e. the fill/drain ramp of Section 4.6.
        s_var = model.add_var("stages", lb=1.0, ub=float(stages), integer=True)
        for op in range(neutral.n_ops):
            coeffs: Dict[Var, float] = {s_var: float(ii)}
            for t in domain(op):
                var = assign[(op, t)]
                coeffs[var] = coeffs.get(var, 0.0) - t
            model.add_constraint(coeffs, Sense.GE, 1.0, name=f"stage[{op}]")
        if cutoff is not None:
            model.add_constraint({s_var: 1.0}, Sense.LE, float(cutoff))
        costs: Dict[Var, float] = {s_var: 1.0}
        lifetime_tiebreak(costs)
        model.set_objective(costs, minimize=True)
        return ScheduleFormulation(
            model=model, neutral=neutral, ii=ii, horizon=horizon,
            assign=assign, buffers={},
        )
    if objective == "buffers":
        # One buffer count per value: II * b_v >= sigma_j - sigma_i + II*omega
        # for every consumer j of the value.
        for arc in neutral.arcs:
            if arc.kind != "flow" or not arc.value:
                continue
            b = buffers.get(arc.value)
            if b is None:
                b = model.add_var(
                    f"buf[{arc.value}]", lb=0.0, ub=float(stages + 1), integer=True
                )
                buffers[arc.value] = b
            if arc.src == arc.dst:
                # Lifetime of a self-recurrence is II*omega: b >= omega.
                model.add_constraint({b: 1.0}, Sense.GE, float(arc.omega))
                continue
            coeffs: Dict[Var, float] = {b: float(ii)}
            for t in domain(arc.dst):
                var = assign[(arc.dst, t)]
                coeffs[var] = coeffs.get(var, 0.0) - t
            for t in domain(arc.src):
                var = assign[(arc.src, t)]
                coeffs[var] = coeffs.get(var, 0.0) + t
            model.add_constraint(
                coeffs,
                Sense.GE,
                float(ii * arc.omega),
                name=f"buf[{arc.value}<-{arc.dst}]",
            )
        if cutoff is not None and buffers:
            model.add_constraint(
                {b: 1.0 for b in buffers.values()},
                Sense.LE,
                float(cutoff),
                name="buffer-cutoff",
            )
        # Primary objective: total buffers.  Secondary (lexicographic via a
        # weight too small to trade against one buffer): total lifetime —
        # among buffer-optimal schedules prefer the register-friendly ones
        # rather than ones that stretch every value to exactly II cycles.
        costs = {b: 1.0 for b in buffers.values()}
        lifetime_tiebreak(costs)
        model.set_objective(costs, minimize=True)
    else:
        # Resource-constrained stage: compact schedules help the search and
        # shorten lifetimes without constraining feasibility.
        model.set_objective({var: float(t) for (_, t), var in assign.items()}, minimize=True)

    return ScheduleFormulation(
        model=model, neutral=neutral, ii=ii, horizon=horizon,
        assign=assign, buffers=buffers,
    )

