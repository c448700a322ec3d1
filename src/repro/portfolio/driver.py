"""The portfolio driver: race the registered backends per (loop, II).

Shares MOST's II walk (:func:`repro.most.walk.walk_ii`: MinII up to a
cap, II-optimality proven when every smaller II was proven infeasible,
heuristic fallback), but at each II the *neutral* formulation is answered
by a sequence of backends — CP propagation, the time-indexed ILP,
optionally Z3 — racing under the walk's one
:class:`~repro.most.walk.SolveBudget`.  The first definitive sat/unsat
wins; ``cross_check`` mode instead queries *every* backend and records the
full probe trail, which is what the cross-backend agreement oracle audits.

Budget discipline (the single-owner invariant): every backend invocation
asks the shared budget for its slice, a slice can never exceed what
remains, and a backend overshooting its granted slice by more than the
enforcement slack raises :class:`~repro.most.walk.BudgetOverrun` — racing
backends cannot over-spend the loop's budget no matter how many are
registered.

Per-backend effort lands in ``repro.obs`` counters
(``portfolio.<backend>.seconds``, ``.sat``, ``.unsat``, ``.unknown``,
``.nodes``), so traced bench runs aggregate solver effort per backend in
BENCH_pipeline.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Optional, Tuple

from ..core.driver import options_from_mapping
from ..core.priorities import production_orders
from ..core.sched import Schedule
from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription, r8000
from ..most.walk import (
    INFEASIBLE,
    BudgetOverrun,
    OptimalResult,
    SolveBudget,
    SolveStats,
    Verdict,
    walk_ii,
)
from ..obs import get_recorder
from .answer import SAT, UNSAT, BackendAnswer, ProbeRecord, probe_disagreements
from .cp import solve_cp
from .formulation import ModuloFormulation, build_modulo_formulation, check_witness
from .ilp_backend import solve_ilp
from .smt import smt_available, solve_smt

#: Backends every build of this repo can run.  ``smt`` joins the set only
#: when ``z3-solver`` is importable — requesting it without z3 is a clean
#: skip (recorded in the result), not an error, so one options dict works
#: on machines with and without the optional dependency.
ALWAYS_AVAILABLE = ("cp", "ilp")
KNOWN_BACKENDS = ("cp", "ilp", "smt")

#: A backend may overshoot its granted slice by at most this many seconds
#: plus half the slice (both CP and the ILP check their deadlines at node
#: granularity; a node can straddle the boundary).  Beyond that the
#: backend ignored its budget — the over-spend bug the single-owner
#: invariant exists to catch.
SLICE_GRACE = 1.0


def available_backend_names() -> Tuple[str, ...]:
    """The backends runnable in this environment, in race order."""
    return KNOWN_BACKENDS if smt_available() else ALWAYS_AVAILABLE


def _parse_backends(spec: str) -> List[str]:
    names = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = sorted(set(names) - set(KNOWN_BACKENDS))
    if unknown:
        raise ValueError(
            f"unknown portfolio backends: {', '.join(unknown)} "
            f"(known: {', '.join(KNOWN_BACKENDS)})"
        )
    if not names:
        raise ValueError("portfolio needs at least one backend")
    return names


@dataclass
class PortfolioOptions:
    """Configuration of the portfolio pipeliner."""

    # Per-loop search budget shared by *all* backends across *all* IIs.
    time_limit: float = 20.0
    # Comma-separated race order.  The default deliberately omits smt:
    # z3's budget is wall-clock only, so letting it decide results would
    # make committed benchmarks machine-dependent; cross-check lanes and
    # the CI z3 matrix opt it in explicitly.
    backends: str = "cp,ilp"
    # Query every backend at every II (instead of stopping at the first
    # definitive answer) and record the full probe trail — the agreement
    # oracle's mode.  Costs roughly a factor of len(backends).
    cross_check: bool = False
    max_ops: int = 80  # loops beyond this go straight to the fallback
    ii_cap_factor: int = 2
    stages: Optional[int] = None
    fallback: bool = True  # use the heuristic pipeliner as backup
    max_nodes: int = 200_000  # deterministic per-solve budget (cp + ilp bnb)
    ilp_engine: str = "bnb"
    priority_branching: bool = True  # feed the ILP an SGI production order

    def backend_names(self) -> List[str]:
        return _parse_backends(self.backends)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PortfolioOptions":
        """Build options from a JSON-style mapping (the repro.exec cell form)."""
        options = options_from_mapping(cls, data)
        options.backend_names()  # validate eagerly, inside the worker
        return options


def _backend_callable(
    name: str, loop: Loop, machine: MachineDescription, options: PortfolioOptions
) -> Callable[[ModuloFormulation, float], BackendAnswer]:
    """Bind one backend name to a ``(formulation, time_limit) -> answer``."""
    if name == "cp":
        return lambda f, limit: solve_cp(
            f, time_limit=limit, max_nodes=options.max_nodes
        )
    if name == "ilp":
        order = (
            next(iter(production_orders(loop, machine).values()))
            if options.priority_branching
            else None
        )
        return lambda f, limit: solve_ilp(
            f,
            loop,
            time_limit=limit,
            max_nodes=options.max_nodes,
            engine=options.ilp_engine,
            branch_priority=order,
        )
    if name == "smt":
        return lambda f, limit: solve_smt(f, time_limit=limit)
    raise ValueError(f"unknown backend {name!r}")  # pragma: no cover - validated


def _probe_ii(
    formulation: ModuloFormulation,
    backends: List[Tuple[str, Callable[[ModuloFormulation, float], BackendAnswer]]],
    budget: SolveBudget,
    options: PortfolioOptions,
    stats: SolveStats,
    probes: List[ProbeRecord],
) -> List[BackendAnswer]:
    """Race the backends on one formulation under the shared budget.

    Sequential and deterministic: race order is the configured backend
    order, each invocation gets an even slice of the *total* budget capped
    by what remains (the single-owner invariant), and without
    ``cross_check`` the first definitive answer ends the round.
    """
    rec = get_recorder()
    answers: List[BackendAnswer] = []
    for name, fn in backends:
        if budget.expired():
            break
        granted = budget.slice(parts=len(backends), floor=0.05)
        answer = fn(formulation, granted)
        # Single-owner budget invariant: a slice is a ceiling, not a hint.
        # CP and the B&B check their deadline per node, so enforcement
        # slack is half a slice plus a constant; beyond it the backend
        # simply ignored the budget it was granted.
        if answer.seconds > granted + SLICE_GRACE + 0.5 * granted:
            raise BudgetOverrun(
                f"backend {name!r} spent {answer.seconds:.3f}s of a "
                f"{granted:.3f}s budget slice"
            )
        stats.charge(answer)
        witness_ok: Optional[bool] = None
        detail = answer.detail
        if answer.answer == SAT:
            errors = check_witness(formulation, answer.times or {})
            witness_ok = not errors
            if errors:
                detail = "; ".join(errors[:3])
        probes.append(
            ProbeRecord(
                ii=formulation.ii,
                backend=name,
                answer=answer.answer,
                seconds=answer.seconds,
                nodes=answer.nodes,
                witness_ok=witness_ok,
                detail=detail,
            )
        )
        if rec.enabled:
            rec.counter(f"portfolio.{name}.seconds", answer.seconds)
            rec.counter(f"portfolio.{name}.nodes", answer.nodes)
            rec.counter(f"portfolio.{name}.{answer.answer}")
        answers.append(answer)
        if answer.definitive and not options.cross_check:
            break
    return answers


def portfolio_pipeline_loop(
    loop: Loop,
    machine: Optional[MachineDescription] = None,
    options: Optional[PortfolioOptions] = None,
    verify: Optional[bool] = None,
) -> OptimalResult:
    """Schedule ``loop`` with the backend portfolio, falling back to heuristics.

    ``verify`` cross-checks successful results with the independent
    ``repro.verify`` analyzers (``None`` = process default); ERROR
    diagnostics raise :class:`repro.verify.VerificationError`.
    """
    machine = machine if machine is not None else r8000()
    options = options or PortfolioOptions()
    probes: List[ProbeRecord] = []
    requested = options.backend_names()
    usable = [n for n in requested if n != "smt" or smt_available()]
    backends = [
        (name, _backend_callable(name, loop, machine, options)) for name in usable
    ]

    def formulate(ii: int) -> ModuloFormulation:
        formulation = build_modulo_formulation(loop, machine, ii, stages=options.stages)
        if formulation.infeasible:
            # The shared screen is a proof every backend would repeat;
            # record it once so the probe trail stays complete.
            probes.append(
                ProbeRecord(
                    ii=ii, backend="screen", answer=UNSAT,
                    detail=formulation.infeasible_reason,
                )
            )
        return formulation

    def solve(
        formulation: ModuloFormulation, budget: SolveBudget, stats: SolveStats
    ) -> Verdict:
        answers = _probe_ii(formulation, backends, budget, options, stats, probes)
        for answer in answers:
            if answer.answer == SAT and not check_witness(formulation, answer.times or {}):
                schedule = Schedule(
                    loop=loop,
                    machine=machine,
                    ii=formulation.ii,
                    times=dict(answer.times or {}),
                    producer=f"portfolio/{answer.backend}",
                )
                return schedule, {"winning_backend": answer.backend}
        return INFEASIBLE if any(a.answer == UNSAT for a in answers) else None

    result = walk_ii(
        loop, machine, options, verify,
        tag="portfolio", formulate=formulate, solve=solve, search=bool(backends),
        skipped_backends=tuple(n for n in requested if n not in usable),
        probes=probes,
    )
    result.disagreements = probe_disagreements(probes)
    rec = get_recorder()
    if rec.enabled and result.disagreements:
        rec.counter("portfolio.disagreements", len(result.disagreements))
    return result
