"""The one optimal driver: II walk, per-II probe and stage 2 (§3.3, §4.4).

MOST and the backend portfolio are one driver, :func:`optimal_pipeline_loop`,
run under two default sets (:class:`~repro.most.scheduler.MostOptions`,
:class:`~repro.portfolio.driver.PortfolioOptions`) of one options class,
:class:`OptimalOptions`.  Per (loop, II), :func:`probe_ii` asks one
question of a list of entries (a backend bound to this II's neutral
formulation) in order under the loop's one :class:`SolveBudget`, every
answer charged, recorded and its witness re-checked.  The entries are the
requested backends in race order; the ``ilp`` backend contributes one entry
per branch order (every SGI production order for MOST, the first one for
the portfolio, one unordered entry on HiGHS, which cannot branch on an
order), all over one encoding of the II.  Around the probe,
:func:`walk_ii` runs once: IIs from MinII to MaxII
(:func:`~repro.core.minii.max_ii`); the window-collapse screen;
II-optimality proven when every smaller II was proven infeasible; a
register-allocation failure walks on (a larger II shortens relative
lifetimes); an empty-handed walk falls back on the SGI heuristic without
bank pairing.  When the options name a secondary objective, stage 2
re-solves the winning II with the ILP, starting from the winner's times.
The walk owns the probe trail: every screen and every probe lands in its
:class:`~repro.core.driver.PipelineResult`'s ``probes``, and the winning
sat probe of each II reached carries that schedule's allocation outcome.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.driver import (
    FALLBACK_OPTIONS,
    PipelineResult,
    PipelinerOptions,
    options_from_mapping,
    pipeline_loop,
)
from ..core.minii import max_ii, min_ii as compute_min_ii
from ..core.priorities import production_orders
from ..core.sched import Schedule
from ..ilp.model import ENGINES
from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription, r8000
from ..obs import get_recorder
from ..portfolio.answer import SAT, UNSAT, BackendAnswer, ProbeRecord, probe_disagreements
from ..portfolio.cp import solve_cp
from ..portfolio.formulation import ModuloFormulation, build_modulo_formulation, check_witness
from ..portfolio.ilp_backend import load_ilp_solver, solve_ilp
from ..portfolio.smt import smt_available, solve_smt
from ..regalloc.coloring import allocate_schedule
from .formulation import OBJECTIVES, build_formulation

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
    seconds: float = 0.0
    ii_attempts: int = 0
    per_backend: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def charge(self, answer: BackendAnswer) -> None:
        """Fold one backend answer into the totals."""
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


#: Backends every build of this repo can run.  ``smt`` joins the set only
#: when ``z3-solver`` is importable — requesting it without z3 is a clean
#: skip (recorded in the result), not an error, so one options dict works
#: on machines with and without the optional dependency.
KNOWN_BACKENDS = ("cp", "ilp", "smt")


def _runnable(name: str) -> bool:
    return name != "smt" or smt_available()


def available_backend_names() -> Tuple[str, ...]:
    """The backends runnable in this environment, in race order."""
    return tuple(filter(_runnable, KNOWN_BACKENDS))


@dataclass
class OptimalOptions:
    """Configuration of the optimal pipeliner.

    The class defaults are MOST's (§3.3); the portfolio is the same driver
    under its own default set
    (:class:`~repro.portfolio.driver.PortfolioOptions`).
    """

    # Per-loop search budget, shared by every backend at every II; the
    # paper's three minutes (experiment configurations pass their own,
    # much smaller, value).
    time_limit: float = PAPER_TIME_LIMIT
    # Comma-separated race order of the probe's backends.
    backends: str = "ilp"
    # Query every backend at every II (instead of stopping at the first
    # definitive answer) and record the full probe trail — the agreement
    # oracle's mode.  Costs roughly a factor of len(backends).
    cross_check: bool = False
    # Stage 2 re-solves the winning II for "buffers" (§3.3) or "overhead",
    # the stage count the paper's conclusions propose as future work (§5);
    # None keeps stage 1's schedule.
    objective: Optional[str] = "buffers"
    integrated: bool = False  # ILP entries minimise buffers in one solve (§3.3 adj. 1)
    # The ILP's engine: "bnb" (ours) branches on the SGI production orders
    # (§3.3 adj. 3); "scipy" (HiGHS) cannot branch on an order, so there
    # the ILP gets one unordered entry.
    engine: str = "bnb"
    branch_orders: Optional[int] = None  # that many production orders, in turn (None: all)
    max_ops: int = 80  # loops beyond this go straight to the fallback
    fallback: bool = True  # use the heuristic pipeliner as backup
    max_nodes: int = 200_000  # deterministic per-solve budget (cp + ilp)

    def __post_init__(self) -> None:
        self.backend_names()
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r} (known: {', '.join(ENGINES)})")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r} (known: {OBJECTIVES})")
        if self.branch_orders is not None and self.branch_orders < 1:
            raise ValueError(f"branch_orders must be at least 1, not {self.branch_orders}")

    def backend_names(self) -> List[str]:
        """The requested backends, in race order."""
        names = [name.strip() for name in self.backends.split(",") if name.strip()]
        unknown = sorted(set(names) - set(KNOWN_BACKENDS))
        if unknown:
            raise ValueError(
                f"unknown portfolio backends: {', '.join(unknown)} "
                f"(known: {', '.join(KNOWN_BACKENDS)})"
            )
        if not names:
            raise ValueError("an optimal driver needs at least one backend")
        return names

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OptimalOptions":
        """Build options from a JSON-style mapping (the repro.exec cell form)."""
        return options_from_mapping(cls, data)


#: A per-II step's verdict that its II is proven infeasible.  ``None`` means
#: inconclusive; a found schedule comes back as ``(schedule, fields)``, the
#: fields being the :class:`PipelineResult` attributes the II's step set.
INFEASIBLE = "infeasible"
Verdict = Union[None, str, Tuple[Schedule, Dict[str, Any]]]

#: One probe entry: a backend name and its solver bound to one II's
#: formulation, called with the granted slice in seconds.
Entry = Tuple[str, Callable[[float], BackendAnswer]]

#: A backend may overshoot its granted slice by at most this many seconds
#: plus half the slice (CP and the ILP check their deadlines at node
#: granularity; a node can straddle the boundary).  Beyond that the
#: backend ignored its budget — the over-spend bug the single-owner
#: invariant exists to catch.
SLICE_GRACE = 1.0

#: The smallest slice worth granting a backend (never lifted above what
#: remains): the ILP solves an LP relaxation per node and gets nowhere in
#: less than about a second; CP and Z3 answer small formulations in
#: milliseconds.
_SLICE_FLOORS = {"ilp": 1.0}
_DEFAULT_SLICE_FLOOR = 0.05


def probe_ii(
    formulation: ModuloFormulation,
    entries: Sequence[Entry],
    budget: SolveBudget,
    stats: SolveStats,
    probes: List[ProbeRecord],
    *,
    cross_check: bool = False,
    tag: str = "portfolio",
) -> Union[None, str, BackendAnswer]:
    """Ask one II's question of ``entries`` in order, under the shared budget.

    Sequential and deterministic: each entry gets an even slice of the
    *total* budget, lifted to its backend's floor and capped by what
    remains (the single-owner invariant); without ``cross_check`` the
    first definitive answer ends the round.  Every answer is charged to
    ``stats`` and appended to ``probes``, a sat witness re-checked against
    ``formulation`` by :func:`check_witness`.

    Returns the first sat answer whose witness checks, else
    :data:`INFEASIBLE` when an entry proved the II infeasible, else None.
    """
    rec = get_recorder()
    winner: Optional[BackendAnswer] = None
    proven = False
    for name, solve in entries:
        if budget.expired():
            break
        granted = budget.slice(
            parts=len(entries), floor=_SLICE_FLOORS.get(name, _DEFAULT_SLICE_FLOOR)
        )
        with rec.span(f"{tag}.probe", backend=name, ii=formulation.ii,
                      slice_seconds=round(granted, 3)):
            answer = solve(granted)
        # Single-owner budget invariant: a slice is a ceiling, not a hint.
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
            elif winner is None:
                winner = answer
        proven = proven or answer.answer == UNSAT
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
            rec.counter(f"{tag}.{name}.seconds", answer.seconds)
            rec.counter(f"{tag}.{name}.nodes", answer.nodes)
            rec.counter(f"{tag}.{name}.{answer.answer}")
        if answer.definitive and not cross_check:
            break
    if winner is not None:
        return winner
    return INFEASIBLE if proven else None


def walk_ii(
    loop: Loop,
    machine: MachineDescription,
    options: OptimalOptions,
    solve: Callable[[ModuloFormulation, SolveBudget, SolveStats, List[ProbeRecord]], Verdict],
    *,
    tag: str,
    search: bool = True,
) -> PipelineResult:
    """Walk the II range with the per-II step ``solve``; fall back if needed.

    ``solve(formulation, budget, stats, probes)`` decides one II's neutral
    formulation, appending its probes to the walk's trail.  ``tag``
    prefixes the recorder names (``<tag>.ii_attempts``, ``<tag>.ii``);
    ``search=False`` goes straight to the fallback, whose own result comes
    back marked ``fallback_used`` and carrying the walk's stats and probes.
    """
    mii = compute_min_ii(loop, machine)
    budget = SolveBudget(total=options.time_limit)
    stats = SolveStats()
    probes: List[ProbeRecord] = []
    rec = get_recorder()
    if search and loop.n_ops <= options.max_ops:
        # MinII itself is a hard lower bound, so the proof chain starts whole.
        smaller_proven_infeasible = True
        for ii in range(mii, max_ii(loop, machine) + 1):
            if budget.expired():
                break
            stats.ii_attempts += 1
            if rec.enabled:
                rec.counter(f"{tag}.ii_attempts")
                rec.event(f"{tag}.ii", loop=loop.name, ii=ii)
            formulation = build_modulo_formulation(loop, machine, ii)
            if formulation.infeasible:
                # Proven infeasible at this II (window collapse): a proof
                # every backend would repeat, recorded once.
                probes.append(
                    ProbeRecord(
                        ii=ii, backend="screen", answer=UNSAT,
                        detail=formulation.infeasible_reason,
                    )
                )
                continue
            verdict = solve(formulation, budget, stats, probes)
            if verdict is None:
                smaller_proven_infeasible = False
                continue  # inconclusive at this II; try the next
            if verdict == INFEASIBLE:
                continue
            schedule, found = verdict
            allocation = allocate_schedule(schedule, machine)
            winner = next(p for p in probes if p.ii == ii and p.witness_ok)
            winner.allocated, winner.uncolored = allocation.success, len(allocation.uncolored)
            if allocation.success:
                return PipelineResult(
                    True, schedule, allocation, loop, loop, mii,
                    optimal=smaller_proven_infeasible, stats=stats, probes=probes, **found,
                )
            # Register allocation failed at this II: a larger II shortens
            # relative lifetimes, so keep walking the II range before
            # resorting to the heuristic fallback.
            smaller_proven_infeasible = False

    if not options.fallback:
        return PipelineResult(False, None, None, loop, loop, mii, stats=stats, probes=probes)
    fallback = pipeline_loop(loop, machine, PipelinerOptions.from_dict(FALLBACK_OPTIONS))
    return dataclasses.replace(fallback, fallback_used=True, stats=stats, probes=probes)


def optimal_pipeline_loop(
    loop: Loop,
    machine: Optional[MachineDescription],
    options: OptimalOptions,
    *,
    tag: str,
) -> PipelineResult:
    """Schedule ``loop`` with the optimal pipeliner, falling back to heuristics.

    ``tag`` (``most`` or ``portfolio``) prefixes the recorder names and the
    schedule's producer.
    """
    machine = machine if machine is not None else r8000()
    requested = options.backend_names()
    usable = list(filter(_runnable, requested))
    secondary = options.objective is not None and not options.integrated
    orders: List[Optional[List[int]]] = [None]
    if "ilp" in usable or secondary:
        if options.engine == "bnb":
            # §3.3 adjustment 3: the SGI production orders as branch orders.
            orders = list(production_orders(loop, machine).values())[: options.branch_orders]
        load_ilp_solver()

    def solve(
        neutral: ModuloFormulation,
        budget: SolveBudget,
        stats: SolveStats,
        probes: List[ProbeRecord],
    ) -> Verdict:
        # One encoding per II, built when the first ILP entry runs.
        encoded = functools.cache(
            lambda: build_formulation(neutral, "buffers" if options.integrated else None)
        )

        def ilp(order: Optional[Sequence[int]]) -> Callable[[float], BackendAnswer]:
            # Stage 1 is a feasibility question: the first schedule wins.
            return lambda limit: solve_ilp(
                encoded(), time_limit=limit, max_nodes=options.max_nodes,
                engine=options.engine, branch_priority=order,
                first_solution=not options.integrated,
            )

        solvers: Dict[str, List[Callable[[float], BackendAnswer]]] = {
            "cp": [lambda limit: solve_cp(neutral, time_limit=limit, max_nodes=options.max_nodes)],
            "ilp": [ilp(order) for order in orders],
            "smt": [lambda limit: solve_smt(neutral, time_limit=limit)],
        }
        entries = [(name, fn) for name in usable for fn in solvers[name]]
        winner = probe_ii(
            neutral, entries, budget, stats, probes, cross_check=options.cross_check, tag=tag
        )
        if not isinstance(winner, BackendAnswer):
            return winner
        times = dict(winner.times or {})
        buffers: Optional[int] = None
        if options.integrated and winner.objective is not None:
            buffers = int(round(winner.objective))
        if secondary:
            # Cap the secondary solve so one II cannot starve the rest of
            # the II range of solver time: at most a third of the budget,
            # and never more than remains of it.
            times, buffers = _optimise_secondary(
                neutral, loop, machine, times, orders[0], options, stats,
                budget.slice(parts=3), tag,
            )
        schedule = Schedule(
            loop=loop, machine=machine, ii=neutral.ii, times=times,
            producer=f"{tag}/{winner.backend}",
        )
        return schedule, {"buffers": buffers, "winning_backend": winner.backend}

    result = walk_ii(loop, machine, options, solve, tag=tag, search=bool(usable))
    result.skipped_backends = tuple(name for name in requested if name not in usable)
    result.disagreements = probe_disagreements(result.probes)
    rec = get_recorder()
    if rec.enabled and result.disagreements:
        rec.counter(f"{tag}.disagreements", len(result.disagreements))
    return result


def _optimise_secondary(
    neutral: ModuloFormulation,
    loop: Loop,
    machine: MachineDescription,
    initial_times: Dict[int, int],
    order: Optional[Sequence[int]],
    options: OptimalOptions,
    stats: SolveStats,
    time_limit: float,
    tag: str,
) -> Tuple[Dict[int, int], Optional[int]]:
    """Stage 2: re-solve the winning II with the secondary objective.

    Keeps the stage-1 schedule when the solver cannot improve on it in
    time ("it would accept the best suboptimal solution found, if any").
    The model re-encodes the II's neutral formulation with the objective,
    whichever backend found the stage-1 schedule.  ``time_limit`` is the
    slice of the loop's :class:`SolveBudget` this stage may consume.
    """
    if time_limit <= 0.5:
        return initial_times, None
    # The stage-1 schedule is a feasible incumbent: its own objective value
    # is a sound cutoff that prunes most of the minimisation tree.
    incumbent = Schedule(
        loop=loop, machine=machine, ii=neutral.ii, times=dict(initial_times),
        producer=f"{tag}/stage1",
    )
    if options.objective == "overhead":
        cutoff = incumbent.n_stages
    else:
        cutoff = incumbent.buffer_count()
    encoded = build_formulation(neutral, options.objective, cutoff)
    with get_recorder().span(f"{tag}.secondary", loop=loop.name, ii=neutral.ii):
        answer = solve_ilp(
            encoded, time_limit=time_limit, max_nodes=options.max_nodes,
            engine=options.engine, branch_priority=order, first_solution=False,
        )
    stats.charge(answer)
    if answer.answer == SAT and not check_witness(neutral, answer.times or {}):
        return dict(answer.times or {}), int(round(answer.objective))
    return initial_times, None
