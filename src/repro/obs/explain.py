"""II-gap attribution: *why* did each loop get the II it got?

The paper's central quality claim — "II ≈ MinII almost everywhere" (§5) —
is only an argument once every loop's II is *attributed*: which MinII side
bound it (the critical recurrence circuit vs. the bottleneck resource),
and, for the loops scheduled above MinII, which mechanism ate the gap.
This module produces that attribution as a per-(loop × scheduler)
:class:`IIExplanation`:

* the MinII profile — ResMII vs. RecMII, the operations on the critical
  recurrence circuit (extracted from :class:`repro.core.distances.
  SccDistanceTables` at ``RecMII - 1``, where the binding circuit shows up
  as a positive self-distance), and per-resource utilization at the
  achieved II;
* when II > MinII, a **one-shot replay of the failed II−1 attempt** under
  a private trace recorder, classified from the ``IIAttempt``/BnB prune
  counters into exactly one binding-constraint class — unless a
  :mod:`repro.analyze` certificate already covers the whole gap, in which
  case the attribution **cites the certificate** (machine-checkable, and
  cheaper than the replay):

  ==================  ==================================================
  ``recurrence``      II == MinII and RecMII > ResMII (or II−1 proven
                      infeasible with the recurrence side larger)
  ``resource``        II == MinII and ResMII >= RecMII (ditto)
  ``register_pressure``  a schedule exists below the achieved II but
                      register allocation fails even after spill rounds
  ``bank_pairing``    the driver kept a higher-II bank-paired schedule
                      although II−1 was schedulable and allocatable
  ``search_budget``   the II−1 attempt died on an explicit effort budget
                      (backtrack/placement limit, ILP node/time limit)
  ``search_exhausted``  the II−1 search completed empty-handed within
                      budget (heuristic incompleteness)
  ``unschedulable``   the pipeliner produced no schedule at all
  ==================  ==================================================

All pipeliner imports are lazy (the registry resolves drivers at call
time): ``repro.obs`` is imported by the core pipeliners, so this module
must not import them at module scope.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..schedulers import REGISTRY, get_scheduler

#: Every class :func:`classify` can emit — the closed vocabulary the CLI,
#: the HTML dashboard and the tests share.
BINDING_CLASSES = (
    "recurrence",
    "resource",
    "register_pressure",
    "bank_pairing",
    "search_budget",
    "search_exhausted",
    "unschedulable",
)

#: Classes that mean "the schedule is as good as the MinII bound allows".
AT_BOUND_CLASSES = ("recurrence", "resource")

#: Wall-clock ceiling on one ILP replay solve; the replay is diagnostic,
#: not a benchmark, so it never inherits the full paper budget.
REPLAY_ILP_SECONDS = 5.0


# ---------------------------------------------------------------------------
# MinII profile: which side of max(ResMII, RecMII) binds, and why.
# ---------------------------------------------------------------------------


@dataclass
class MinIIProfile:
    """The two MinII sides of one loop, with their witnesses."""

    res_mii: int
    rec_mii: int
    side: str  # "recurrence" | "resource"
    #: Operations on the critical recurrence circuit (index, opcode).
    circuit: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-resource demand of one iteration (units per iteration).
    demand: Dict[str, int] = field(default_factory=dict)

    @property
    def min_ii(self) -> int:
        return max(self.res_mii, self.rec_mii)


def critical_circuit(loop, rec: Optional[int] = None) -> List[int]:
    """Operation indices on the circuit that forces RecMII.

    At ``II = RecMII - 1`` the binding recurrence is a positive-weight
    cycle, so its members are exactly the ops with a positive longest-path
    self-distance in the SCC tables.  Empty when RecMII <= 1 (no binding
    recurrence).
    """
    from ..core.distances import SccDistanceTables
    from ..core.minii import rec_mii as compute_rec_mii

    rec = compute_rec_mii(loop) if rec is None else rec
    if rec <= 1:
        return []
    tables = SccDistanceTables(loop, rec - 1)
    return [
        op.index
        for op in loop.ops
        if (tables.dist(op.index, op.index) or 0) > 0
    ]


def resource_demand(loop, machine) -> Dict[str, int]:
    """Units of each resource one loop iteration consumes."""
    demand: Dict[str, int] = {}
    for op in loop.ops:
        for resource, count in machine.table(op.opclass).totals().items():
            demand[resource] = demand.get(resource, 0) + count
    return demand


def resource_utilization(loop, machine, ii: int) -> Dict[str, float]:
    """Fraction of each resource's capacity consumed at initiation rate II."""
    if ii <= 0:
        return {}
    return {
        resource: total / (machine.availability[resource] * ii)
        for resource, total in resource_demand(loop, machine).items()
        if machine.availability.get(resource)
    }


def bottleneck_resource(loop, machine, ii: int) -> Optional[str]:
    """The most-utilized resource at II, or None for an empty loop."""
    util = resource_utilization(loop, machine, ii)
    if not util:
        return None
    return max(sorted(util), key=lambda r: util[r])


def minii_profile(loop, machine) -> MinIIProfile:
    from ..core.minii import rec_mii as compute_rec_mii
    from ..core.minii import res_mii as compute_res_mii

    res = compute_res_mii(loop, machine)
    rec = compute_rec_mii(loop)
    circuit = [
        {"index": i, "opcode": loop.ops[i].opcode}
        for i in critical_circuit(loop, rec)
    ]
    return MinIIProfile(
        res_mii=res,
        rec_mii=rec,
        # Ties go to "resource": a tied resource is at 100% utilization,
        # which is the sharper (and testable) witness.
        side="recurrence" if rec > res else "resource",
        circuit=circuit,
        demand=resource_demand(loop, machine),
    )


# ---------------------------------------------------------------------------
# The explanation record.
# ---------------------------------------------------------------------------


@dataclass
class IIExplanation:
    """One (loop × scheduler) cell's schedule quality, attributed."""

    loop: str
    scheduler: str
    success: bool
    ii: Optional[int]
    min_ii: int
    res_mii: int
    rec_mii: int
    minii_side: str  # which side of max(ResMII, RecMII) is larger
    binding: str  # one of BINDING_CLASSES
    detail: str = ""
    gap: Optional[int] = None  # ii - min_ii (None on failure)
    critical_circuit: List[Dict[str, Any]] = field(default_factory=list)
    utilization: Dict[str, float] = field(default_factory=dict)
    bottleneck: Optional[str] = None
    spill_rounds: int = 0
    spilled: List[str] = field(default_factory=list)
    fallback: bool = False
    #: Production II-attempt timeline (from recorder events, when traced).
    attempts: List[Dict[str, Any]] = field(default_factory=list)
    #: Evidence gathered by the II−1 replay (empty when gap == 0).
    replay: Dict[str, Any] = field(default_factory=dict)
    #: Modulo reservation table rows of the achieved schedule (drill-down).
    mrt: List[Dict[str, Any]] = field(default_factory=list)
    obs: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "loop": self.loop,
            "scheduler": self.scheduler,
            "success": self.success,
            "ii": self.ii,
            "min_ii": self.min_ii,
            "res_mii": self.res_mii,
            "rec_mii": self.rec_mii,
            "minii_side": self.minii_side,
            "binding": self.binding,
            "detail": self.detail,
            "gap": self.gap,
            "critical_circuit": self.critical_circuit,
            "utilization": {k: round(v, 4) for k, v in self.utilization.items()},
            "bottleneck": self.bottleneck,
            "spill_rounds": self.spill_rounds,
            "spilled": list(self.spilled),
            "fallback": self.fallback,
            "attempts": self.attempts,
            "replay": self.replay,
            "mrt": self.mrt,
            "obs": self.obs,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IIExplanation":
        known = {f for f in cls.__dataclass_fields__}  # tolerate future keys
        return cls(**{k: v for k, v in data.items() if k in known})

    def summary(self) -> str:
        ii = "-" if self.ii is None else str(self.ii)
        gap = "-" if self.gap is None else str(self.gap)
        return (
            f"{self.loop} × {self.scheduler}: II={ii} MinII={self.min_ii}"
            f" (res {self.res_mii} / rec {self.rec_mii}) gap={gap}"
            f" binding={self.binding}"
        )


# ---------------------------------------------------------------------------
# Shared helpers for the replay classifiers.
# ---------------------------------------------------------------------------


def _mrt_rows(schedule, machine) -> List[Dict[str, Any]]:
    """The modulo reservation table of a schedule, as JSON-friendly rows."""
    from ..machine.resources import ModuloReservationTable

    loop = schedule.loop
    mrt = ModuloReservationTable(schedule.ii, machine.availability)
    for op in loop.ops:
        mrt.place(machine.table(op.opclass), schedule.time(op.index))
    resources = sorted(machine.availability)
    rows = []
    for slot in range(schedule.ii):
        rows.append(
            {
                "slot": slot,
                "ops": [
                    {
                        "index": index,
                        "opcode": loop.ops[index].opcode,
                        "stage": schedule.stage(index),
                    }
                    for index in schedule.ops_at_slot(slot)
                ],
                "used": {r: mrt.used_at(slot, r) for r in resources},
            }
        )
    return rows


def _harvest_attempts(events: Sequence[Mapping[str, Any]], loop_name: str) -> List[Dict[str, Any]]:
    """Normalise recorder events into one II-attempt timeline.

    Understands the three schedulers' event shapes: ``ii.attempt`` (SGI
    two-phase search), ``most.ii`` (ILP II walk) and ``rau.attempt``
    (iterative modulo scheduling).  Spill rounds rename the loop (spill
    code changes the body), so the filter matches by prefix.
    """
    timeline: List[Dict[str, Any]] = []
    for event in events:
        name = event.get("name")
        args = event.get("args", {})
        if name not in ("ii.attempt", "most.ii", "rau.attempt"):
            continue
        ev_loop = str(args.get("loop", ""))
        if not (ev_loop == loop_name or ev_loop.startswith(loop_name)):
            continue
        entry: Dict[str, Any] = {"ii": args.get("ii")}
        if name == "ii.attempt":
            entry.update(
                phase=args.get("phase"),
                success=bool(args.get("success")),
                placements=args.get("placements", 0),
                backtracks=args.get("backtracks", 0),
            )
        elif name == "most.ii":
            entry.update(phase="ilp", success=None)
        else:
            entry.update(
                phase="rau",
                success=bool(args.get("success")),
                placements=args.get("placements", 0),
                evictions=args.get("evictions", 0),
            )
        timeline.append(entry)
    # The ILP walk stops at the accepted II; mark the last visit a success.
    for entry in reversed(timeline):
        if entry.get("phase") == "ilp":
            entry["success"] = True
            break
    return timeline


def _allocate(schedule, machine):
    from ..regalloc.coloring import allocate_schedule

    return allocate_schedule(schedule, machine)


def _bound_binding(profile: MinIIProfile) -> str:
    return "recurrence" if profile.side == "recurrence" else "resource"


def _cert_blurb(cert: Mapping[str, Any]) -> str:
    """One-line citation of a repro.analyze certificate's counting claim."""
    kind = cert.get("kind", "?")
    if kind == "slot_conflict":
        return (
            f"{kind}: {cert['used']} rigid use(s) of {cert['resource']!r} "
            f"in modulo slot {cert['slot']} of capacity {cert['available']}"
        )
    if kind == "window_density":
        lo, hi = cert["window"]
        return (
            f"{kind}: {cert['used']} use(s) of {cert['resource']!r} in "
            f"window [{lo},{hi}] of capacity "
            f"{cert['available']}×{hi - lo + 1}"
        )
    if kind == "offset_exclusion":
        return (
            f"{kind}: op {cert['op']} has no conflict-free offset against "
            "the rigid recurrence circuit"
        )
    if kind == "register_pressure":
        return (
            f"{kind}: {len(cert['values'])} value lifetime(s) plus "
            f"{len(cert['invariants'])} invariant(s) exceed the "
            f"{cert['registers']} {cert['reg_class']} registers"
        )
    return str(kind)


def _certified_gap(
    result, original, machine, profile: MinIIProfile
) -> Optional[Tuple[str, str, Dict[str, Any]]]:
    """Attribute the gap from a repro.analyze certificate, when one exists.

    When every II below the achieved one carries an infeasibility
    certificate (and no spill code rewrote the loop, so the certificates
    still bind), the II−1 replay is unnecessary: the binding constraint is
    whatever the II−1 certificate counts, machine-checkably.
    """
    if getattr(result, "spilled", []):
        return None
    from ..analyze.bounds import compute_bounds

    target = result.ii - 1
    bounds = compute_bounds(original, machine, cap=target)
    if bounds.allocatable_bound != result.ii:
        return None  # gap not fully certified; fall back to the replay
    cert = next(
        (c for c in bounds.certificates if c.get("ii") == target), None
    )
    if cert is None:  # pragma: no cover - the climb always certifies cap
        return None
    evidence: Dict[str, Any] = {
        "ii": target,
        "schedulable_bound": bounds.schedulable_bound,
        "allocatable_bound": bounds.allocatable_bound,
        "certificate": cert,
    }
    if cert.get("regime") == "allocation":
        detail = (
            f"II−1={target} certified allocation-infeasible "
            f"({_cert_blurb(cert)})"
        )
        return "register_pressure", detail, evidence
    detail = (
        f"II−1={target} certified infeasible ({_cert_blurb(cert)}); "
        "MinII is a loose bound for this loop"
    )
    return _bound_binding(profile), detail, evidence


# ---------------------------------------------------------------------------
# Per-scheduler II−1 replay classifiers.
# ---------------------------------------------------------------------------


def _spill_raised_minii(result, machine, achieved_ii: int) -> Optional[Tuple[str, str, Dict[str, Any]]]:
    """Did spill code raise MinII up to the achieved II?

    All three drivers re-derive MinII from the *spilled* body each round;
    when the achieved II matches that raised bound, the gap against the
    original MinII is pure register pressure.
    """
    from ..core.minii import min_ii as compute_min_ii

    spilled = getattr(result, "spilled", [])
    if not spilled:
        return None
    spilled_mii = compute_min_ii(result.loop, machine)
    if achieved_ii <= spilled_mii:
        detail = (
            f"spill code for {len(spilled)} value(s) raised MinII to "
            f"{spilled_mii}; scheduled at the raised bound"
        )
        return "register_pressure", detail, {"spilled_min_ii": spilled_mii}
    return None


def _classify_sgi_below(result, machine, options) -> Tuple[str, str, Dict[str, Any]]:
    """Replay the SGI search below the achieved II.

    Mirrors the production structure: each priority order searches for
    *its own* minimal schedulable II (here capped at achieved − 1) and
    only then register-allocates.  The driver never revisits intermediate
    IIs after an allocation failure — it spills or takes another order's
    higher II — so when a lower II is schedulable, the colouring outcome
    at that II is what actually decided the gap.
    """
    from ..core.iisearch import search_ii
    from ..core.minii import min_ii as compute_min_ii
    from ..core.pipestage import adjust_pipestages
    from ..core.priorities import production_orders
    from ..core.sched import Schedule

    loop = result.loop
    target = result.ii - 1
    config = options.bnb
    mii = compute_min_ii(loop, machine)
    orders = production_orders(loop, machine)
    evidence: Dict[str, Any] = {"ii": target, "orders": {}}
    budget_hit = False
    for order_name in options.orders:
        found = search_ii(
            loop, machine, orders[order_name], mii, target, config=config,
            linear=options.linear_ii_search,
        )
        order_evidence: Dict[str, Any] = {
            "found_ii": found.ii,
            "attempts": found.attempts,
            "placements": sum(a.placements for a in found.attempted),
            "backtracks": sum(a.backtracks for a in found.attempted),
        }
        evidence["orders"][order_name] = order_evidence
        budget_hit = budget_hit or any(
            a.backtracks >= config.max_backtracks
            or a.placements >= config.max_placements
            for a in found.attempted
            if not a.success
        )
        if not found.success:
            continue
        times = adjust_pipestages(loop, found.ii, found.times)
        schedule = Schedule(
            loop=loop, machine=machine, ii=found.ii, times=times,
            producer=f"sgi/{order_name}",
        )
        allocation = _allocate(schedule, machine)
        order_evidence["alloc_success"] = allocation.success
        order_evidence["uncolored"] = len(allocation.uncolored)
        if not allocation.success:
            detail = (
                f"schedulable at II={found.ii} ({order_name}) but "
                f"{len(allocation.uncolored)} live range(s) failed to "
                f"colour there; the driver took a higher-II order instead"
            )
            return "register_pressure", detail, evidence
        producer = result.schedule.producer if result.schedule else ""
        if producer.endswith("+bank"):
            detail = (
                f"II={found.ii} schedulable and allocatable, but the "
                "driver kept a bank-paired schedule at the higher II"
            )
            return "bank_pairing", detail, evidence
        detail = (
            f"II={found.ii} schedulable and allocatable on replay; the "
            "production search missed it (schedulability is not "
            "monotone in II for this loop)"
        )
        return "search_exhausted", detail, evidence
    if budget_hit:
        detail = (
            f"no II <= {target} schedulable; attempts hit the B&B effort "
            f"budget (max_backtracks={config.max_backtracks})"
        )
        return "search_budget", detail, evidence
    detail = f"every priority order exhausted II <= {target} within budget"
    return "search_exhausted", detail, evidence


def _classify_optimal_below(
    result, machine, formulate, solve, producer: str
) -> Tuple[str, str, Dict[str, Any]]:
    """Replay an optimal driver one II below the achieved schedule.

    The body both optimal drivers share: ``formulate(ii)`` builds the
    driver's formulation, ``solve(formulation, seconds)`` answers it with a
    :class:`~repro.portfolio.answer.BackendAnswer`; the answer maps to a
    class here, unsat as a proof, sat by whether the witness allocates.
    """
    from ..core.sched import Schedule
    from ..portfolio.answer import SAT, UNSAT

    loop = result.loop
    target = result.ii - 1
    evidence: Dict[str, Any] = {"ii": target}
    formulation = formulate(target)
    if formulation.infeasible:
        evidence["proof"] = "window_collapse"
        detail = f"II−1={target} proven infeasible (ASAP/ALAP window collapse)"
        return "__proven__", detail, evidence
    answer = solve(formulation, REPLAY_ILP_SECONDS)
    evidence.update(
        answer=answer.answer,
        nodes=answer.nodes,
        seconds=round(answer.seconds, 4),
    )
    if answer.answer == UNSAT:
        evidence["proof"] = f"{answer.backend}_infeasible"
        detail = f"{answer.backend.upper()} proved II−1={target} infeasible"
        return "__proven__", detail, evidence
    if answer.answer == SAT:
        schedule = Schedule(
            loop=loop, machine=machine, ii=target,
            times=dict(answer.times or {}), producer=producer,
        )
        allocation = _allocate(schedule, machine)
        evidence["alloc_success"] = allocation.success
        evidence["uncolored"] = len(allocation.uncolored)
        if not allocation.success:
            detail = (
                f"{answer.backend.upper()} schedules II−1={target} but "
                f"{len(allocation.uncolored)} live range(s) failed to colour"
            )
            return "register_pressure", detail, evidence
        detail = (
            f"II−1={target} solvable on replay; the production solve "
            "budget expired before reaching it"
        )
        return "search_budget", detail, evidence
    evidence["limit"] = answer.detail
    detail = (
        f"II−1={target} solve stopped by its budget ({answer.detail}) "
        "without a solution"
    )
    return "search_budget", detail, evidence


def _classify_most_below(result, machine, options) -> Tuple[str, str, Dict[str, Any]]:
    """Replay MOST's ILP one II below the achieved schedule."""
    from ..most.formulation import build_formulation
    from ..portfolio.ilp_backend import solve_ilp

    loop = result.loop
    return _classify_optimal_below(
        result, machine,
        lambda ii: build_formulation(
            loop, machine, ii, stages=options.stages, minimize_buffers=options.integrated
        ),
        lambda formulation, seconds: solve_ilp(
            formulation, loop, time_limit=min(seconds, options.time_limit),
            max_nodes=options.max_nodes, engine=options.engine,
        ),
        "most/replay",
    )


def _classify_portfolio_below(result, machine, options) -> Tuple[str, str, Dict[str, Any]]:
    """Replay the portfolio's backend race one II below the achieved schedule."""
    from ..portfolio.driver import race_backends
    from ..portfolio.formulation import build_modulo_formulation

    loop = result.loop
    return _classify_optimal_below(
        result, machine,
        lambda ii: build_modulo_formulation(loop, machine, ii, stages=options.stages),
        lambda formulation, seconds: race_backends(
            formulation, loop, machine, options, min(seconds, options.time_limit)
        ),
        "portfolio/replay",
    )


def _classify_rau_below(result, machine, options) -> Tuple[str, str, Dict[str, Any]]:
    """Replay iterative modulo scheduling one II below the achieved one."""
    from ..core.sched import Schedule, SchedulingStats
    from ..rau.scheduler import iterative_modulo_schedule

    loop = result.loop
    target = result.ii - 1
    stats = SchedulingStats()
    times = iterative_modulo_schedule(loop, machine, target, options, stats)
    budget = max(1, int(options.budget_ratio * loop.n_ops))
    evidence: Dict[str, Any] = {
        "ii": target,
        "placements": stats.placements,
        "evictions": stats.evictions,
        "budget": budget,
    }
    if times is None:
        if stats.placements >= budget:
            detail = (
                f"II−1={target} exceeded the placement budget "
                f"({stats.placements}/{budget} placements)"
            )
            return "search_budget", detail, evidence
        detail = (
            f"II−1={target} hit a forced-placement dead end after "
            f"{stats.placements} placements"
        )
        return "search_exhausted", detail, evidence
    schedule = Schedule(
        loop=loop, machine=machine, ii=target, times=times, producer="rau94"
    )
    allocation = _allocate(schedule, machine)
    evidence["alloc_success"] = allocation.success
    evidence["uncolored"] = len(allocation.uncolored)
    if not allocation.success:
        detail = (
            f"II−1={target} schedulable but "
            f"{len(allocation.uncolored)} live range(s) failed to colour"
        )
        return "register_pressure", detail, evidence
    detail = f"II−1={target} schedulable and allocatable on replay"
    return "search_exhausted", detail, evidence


# ---------------------------------------------------------------------------
# The classifier.
# ---------------------------------------------------------------------------


#: The II−1 replay classifier of every scheduler explain covers.
_CLASSIFY_BELOW = {
    "sgi": _classify_sgi_below,
    "most": _classify_most_below,
    "rau": _classify_rau_below,
    "portfolio": _classify_portfolio_below,
}


def explain_result(
    result,
    scheduler: str,
    machine,
    options_dict: Optional[Mapping[str, Any]] = None,
    events: Optional[Sequence[Mapping[str, Any]]] = None,
    obs: Optional[Mapping[str, float]] = None,
    with_mrt: bool = True,
) -> IIExplanation:
    """Attribute one already-computed pipeliner result.

    ``result`` is any registered scheduler's result (:mod:`repro.schedulers`);
    the production run is *not* repeated — only the II−1 replay runs, and
    only when II > MinII.  ``events`` (recorder events of the production
    run, when it was traced) feed the II-attempt timeline.
    """
    original = getattr(result, "original", None) or result.loop
    profile = minii_profile(original, machine)
    explanation = IIExplanation(
        loop=original.name,
        scheduler=scheduler,
        success=result.success,
        ii=result.ii,
        min_ii=profile.min_ii,
        res_mii=profile.res_mii,
        rec_mii=profile.rec_mii,
        minii_side=profile.side,
        binding="unschedulable",
        critical_circuit=profile.circuit,
        spill_rounds=result.spill_rounds,
        spilled=list(getattr(result, "spilled", [])),
        fallback=result.fallback_used,
        attempts=_harvest_attempts(events or [], original.name),
        obs=dict(obs or {}),
    )

    if not result.success or result.ii is None:
        explanation.detail = "the pipeliner produced no allocatable schedule"
        explanation.utilization = resource_utilization(
            original, machine, profile.min_ii
        )
        explanation.bottleneck = bottleneck_resource(original, machine, profile.min_ii)
        return explanation

    explanation.gap = result.ii - profile.min_ii
    explanation.utilization = resource_utilization(original, machine, result.ii)
    explanation.bottleneck = bottleneck_resource(original, machine, result.ii)
    if with_mrt and result.schedule is not None:
        explanation.mrt = _mrt_rows(result.schedule, machine)

    # The ILP's heuristic fallback produced this schedule: attribute it
    # with the SGI classifier over the fallback's own result.
    fallback_result = result.fallback_result
    if explanation.fallback and fallback_result is not None:
        from ..core.driver import FALLBACK_OPTIONS

        inner = explain_result(
            fallback_result,
            "sgi",
            machine,
            FALLBACK_OPTIONS,
            events=events,
            with_mrt=False,
        )
        explanation.binding = inner.binding
        explanation.detail = f"ILP budget exhausted → heuristic fallback; {inner.detail}"
        explanation.replay = inner.replay
        explanation.spill_rounds = inner.spill_rounds
        explanation.spilled = inner.spilled
        return explanation

    if explanation.gap <= 0:
        explanation.binding = _bound_binding(profile)
        if profile.side == "recurrence":
            ops = ", ".join(str(c["index"]) for c in profile.circuit)
            explanation.detail = (
                f"RecMII {profile.rec_mii} > ResMII {profile.res_mii}; "
                f"critical circuit through op(s) {ops or '?'}"
            )
        else:
            util = explanation.utilization.get(explanation.bottleneck or "", 0.0)
            explanation.detail = (
                f"ResMII {profile.res_mii} >= RecMII {profile.rec_mii}; "
                f"bottleneck resource {explanation.bottleneck!r} at "
                f"{util:.0%} utilization"
            )
        return explanation

    # II > MinII: the cheap spill check, then a certificate citation
    # (which replaces the replay when the whole gap is certified), then
    # the II−1 replay.
    options = get_scheduler(scheduler).options_from_dict(dict(options_dict or {}))
    spilled = _spill_raised_minii(result, machine, result.ii)
    if spilled is not None:
        explanation.binding, explanation.detail, explanation.replay = spilled
        return explanation
    certified = _certified_gap(result, original, machine, profile)
    if certified is not None:
        explanation.binding, explanation.detail, explanation.replay = certified
        return explanation

    binding, detail, evidence = _CLASSIFY_BELOW[scheduler](result, machine, options)

    if binding == "__proven__":
        # II−1 is provably impossible: the loop is genuinely bound by its
        # resources/recurrences; MinII was simply a loose lower bound.
        binding = _bound_binding(profile)
        detail += "; MinII is a loose bound for this loop"
    explanation.binding, explanation.detail, explanation.replay = (
        binding, detail, evidence,
    )
    return explanation


def explain_loop(
    loop_key: str,
    scheduler: str,
    machine=None,
    options_dict: Optional[Mapping[str, Any]] = None,
    verify: bool = False,
) -> IIExplanation:
    """Run one (loop × scheduler) cell live and attribute its II."""
    from ..exec.cells import resolve_loop
    from ..machine.descriptions import r8000
    from . import recording

    machine = machine if machine is not None else r8000()
    loop = resolve_loop(loop_key, machine)
    options = get_scheduler(scheduler).options_from_dict(dict(options_dict or {}))
    with recording() as rec:
        result = get_scheduler(scheduler).run(loop, machine, options, verify=verify)
    return explain_result(
        result,
        scheduler,
        machine,
        options_dict,
        events=rec.events,
        obs=dict(rec.counters),
    )


def explain_corpus(
    corpus: str = "livermore",
    schedulers: Sequence[str] = tuple(REGISTRY),
    machine=None,
    scheduler_options: Optional[Mapping[str, Mapping[str, Any]]] = None,
    limit: Optional[int] = None,
    progress=None,
) -> List[IIExplanation]:
    """Attribute every (loop × scheduler) cell of one corpus."""
    from ..exec.cells import corpus_loop_keys

    keys = corpus_loop_keys(corpus)
    if limit is not None:
        keys = keys[:limit]
    out: List[IIExplanation] = []
    for key in keys:
        for scheduler in schedulers:
            opts = (scheduler_options or {}).get(scheduler, {})
            explanation = explain_loop(key, scheduler, machine, opts)
            out.append(explanation)
            if progress is not None:
                progress(explanation)
    return out


# ---------------------------------------------------------------------------
# Presentation.
# ---------------------------------------------------------------------------


def format_explanations(explanations: Sequence[IIExplanation]) -> str:
    """The ``python -m repro explain`` table."""
    headers = (
        "loop", "sched", "II", "MinII", "res/rec", "gap", "binding", "detail"
    )
    rows = []
    for e in explanations:
        rows.append(
            (
                e.loop,
                e.scheduler,
                "-" if e.ii is None else str(e.ii),
                str(e.min_ii),
                f"{e.res_mii}/{e.rec_mii}",
                "-" if e.gap is None else str(e.gap),
                e.binding,
                e.detail,
            )
        )
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
        for c in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)),
        "  ".join("-" * widths[c] for c in range(len(headers))),
    ]
    for r in rows:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in range(len(headers))))
    counts: Dict[str, int] = {}
    for e in explanations:
        counts[e.binding] = counts.get(e.binding, 0) + 1
    lines.append("")
    lines.append(
        "bindings: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    return "\n".join(lines)


def explanations_to_json(explanations: Sequence[IIExplanation]) -> str:
    return json.dumps([e.to_dict() for e in explanations], indent=1, sort_keys=True)
