"""The II walk and the per-II probe both optimal drivers share (§3.3, §4.4).

MOST and the backend portfolio ask one question per (loop, II), and
:func:`probe_ii` asks it for both: a list of entries (a backend bound to
this II's formulation) run in order under the loop's one
:class:`SolveBudget`, every answer charged, recorded and its witness
re-checked.  The portfolio's entries are its backends; MOST's are the ILP
once per SGI production order.  Around the probe, once: IIs from MinII to
``ii_cap_factor * MinII``; the window-collapse screen; II-optimality
proven when every smaller II was proven infeasible; a register-allocation
failure walks on (a larger II shortens relative lifetimes); an
empty-handed walk falls back on the SGI heuristic without bank pairing.
A driver supplies only its per-II step.
The walk owns the probe trail: every screen and every probe lands in
``OptimalResult.probes``, and the winning sat probe of each II reached
carries that schedule's allocation outcome.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.driver import (
    FALLBACK_OPTIONS,
    PipelineResult,
    PipelinerOptions,
    pipeline_loop,
)
from ..core.minii import min_ii as compute_min_ii
from ..core.sched import Schedule
from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription
from ..obs import get_recorder
from ..portfolio.answer import SAT, UNSAT, BackendAnswer, ProbeRecord
from ..portfolio.formulation import ModuloFormulation, check_witness
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
    winning_backend: str = ""  # the backend whose witness was used
    skipped_backends: Tuple[str, ...] = ()  # portfolio: requested but unavailable
    probes: List[ProbeRecord] = field(default_factory=list)  # the probe trail
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
    options: Any,
    *,
    tag: str,
    formulate: Callable[[int], Any],
    solve: Callable[[Any, SolveBudget, SolveStats, List[ProbeRecord]], Verdict],
    search: bool = True,
    **fields: Any,
) -> OptimalResult:
    """Walk the II range with one driver's per-II step; fall back if needed.

    ``options`` supplies ``time_limit``, ``max_ops``, ``ii_cap_factor`` and
    ``fallback``.  ``formulate(ii)`` returns a formulation with an
    ``infeasible`` flag (and ``infeasible_reason``) that
    ``solve(formulation, budget, stats, probes)`` decides, appending its
    probes to the walk's trail.  ``tag`` prefixes the recorder names
    (``<tag>.ii_attempts``, ``<tag>.ii``); ``search=False`` goes straight
    to the fallback; ``fields`` are set on every result.
    """
    mii = compute_min_ii(loop, machine)
    budget = SolveBudget(total=options.time_limit)
    stats = SolveStats()
    probes: List[ProbeRecord] = []
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
                return OptimalResult(
                    True, schedule, allocation, loop, mii, optimal=smaller_proven_infeasible,
                    stats=stats, probes=probes, **fields, **found,
                )
            # Register allocation failed at this II: a larger II shortens
            # relative lifetimes, so keep walking the II range before
            # resorting to the heuristic fallback.
            smaller_proven_infeasible = False

    if not options.fallback:
        return OptimalResult(
            False, None, None, loop, mii, stats=stats, probes=probes, **fields
        )
    fallback = pipeline_loop(loop, machine, PipelinerOptions.from_dict(FALLBACK_OPTIONS))
    return OptimalResult(
        fallback.success, fallback.schedule, fallback.allocation, fallback.loop, mii,
        fallback_used=True, fallback_result=fallback, stats=stats, probes=probes, **fields,
    )
