"""The portfolio driver: race the registered backends per (loop, II).

Shares MOST's II walk and per-II probe (:mod:`repro.most.walk`: MinII up
to a cap, II-optimality proven when every smaller II was proven
infeasible, heuristic fallback), but its probe entries are a sequence of
backends — CP propagation, the time-indexed ILP, optionally Z3 — each
answering the *neutral* formulation under the walk's one
:class:`~repro.most.walk.SolveBudget`.  The first definitive sat/unsat
wins; ``cross_check`` mode instead queries *every* backend and records the
full probe trail, which is what the cross-backend agreement oracle audits.

Budget discipline (the single-owner invariant) lives in
:func:`~repro.most.walk.probe_ii`: every backend invocation asks the
shared budget for its slice, a slice can never exceed what remains, and a
backend overshooting its granted slice by more than the enforcement slack
raises :class:`~repro.most.walk.BudgetOverrun` — racing backends cannot
over-spend the loop's budget no matter how many are registered.

Per-backend effort lands in ``repro.obs`` counters
(``portfolio.<backend>.seconds``, ``.sat``, ``.unsat``, ``.unknown``,
``.nodes``), so traced bench runs aggregate solver effort per backend in
BENCH_pipeline.json.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Optional, Tuple

from ..core.driver import options_from_mapping
from ..core.priorities import production_orders
from ..core.sched import Schedule
from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription, r8000
from ..most.walk import (
    OptimalResult,
    SolveBudget,
    SolveStats,
    Verdict,
    probe_ii,
    walk_ii,
)
from ..obs import get_recorder
from .answer import BackendAnswer, ProbeRecord, probe_disagreements
from .cp import solve_cp
from .formulation import ModuloFormulation, build_modulo_formulation
from .ilp_backend import load_ilp_solver, solve_ilp
from .smt import smt_available, solve_smt

#: Backends every build of this repo can run.  ``smt`` joins the set only
#: when ``z3-solver`` is importable — requesting it without z3 is a clean
#: skip (recorded in the result), not an error, so one options dict works
#: on machines with and without the optional dependency.
ALWAYS_AVAILABLE = ("cp", "ilp")
KNOWN_BACKENDS = ("cp", "ilp", "smt")


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
        # The B&B engine, branching on the first SGI production order.
        order = next(iter(production_orders(loop, machine).values()))
        return lambda f, limit: solve_ilp(
            f, loop, time_limit=limit, max_nodes=options.max_nodes, branch_priority=order
        )
    if name == "smt":
        return lambda f, limit: solve_smt(f, time_limit=limit)
    raise ValueError(f"unknown backend {name!r}")  # pragma: no cover - validated


def _usable_backends(
    loop: Loop, machine: MachineDescription, options: PortfolioOptions
) -> List[Tuple[str, Callable[[ModuloFormulation, float], BackendAnswer]]]:
    """The requested backends runnable here, bound, in race order."""
    return [
        (name, _backend_callable(name, loop, machine, options))
        for name in options.backend_names()
        if name != "smt" or smt_available()
    ]


def portfolio_pipeline_loop(
    loop: Loop,
    machine: Optional[MachineDescription] = None,
    options: Optional[PortfolioOptions] = None,
) -> OptimalResult:
    """Schedule ``loop`` with the backend portfolio, falling back to heuristics."""
    machine = machine if machine is not None else r8000()
    options = options or PortfolioOptions()
    backends = _usable_backends(loop, machine, options)

    def formulate(ii: int) -> ModuloFormulation:
        return build_modulo_formulation(loop, machine, ii, stages=options.stages)

    def solve(
        formulation: ModuloFormulation,
        budget: SolveBudget,
        stats: SolveStats,
        probes: List[ProbeRecord],
    ) -> Verdict:
        entries = [(name, functools.partial(fn, formulation)) for name, fn in backends]
        winner = probe_ii(
            formulation, entries, budget, stats, probes, cross_check=options.cross_check
        )
        if not isinstance(winner, BackendAnswer):
            return winner
        schedule = Schedule(
            loop=loop,
            machine=machine,
            ii=formulation.ii,
            times=dict(winner.times or {}),
            producer=f"portfolio/{winner.backend}",
        )
        return schedule, {"winning_backend": winner.backend}

    if "ilp" in dict(backends):
        load_ilp_solver()
    result = walk_ii(
        loop, machine, options,
        tag="portfolio", formulate=formulate, solve=solve, search=bool(backends),
        skipped_backends=tuple(
            n for n in options.backend_names() if n not in dict(backends)
        ),
    )
    result.disagreements = probe_disagreements(result.probes)
    rec = get_recorder()
    if rec.enabled and result.disagreements:
        rec.counter("portfolio.disagreements", len(result.disagreements))
    return result
