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
* when II > MinII, a **read of the trail the driver already wrote** —
  the final spill round's ``IIAttempt``s (SGI, Rau94) or the walk's
  ``ProbeRecord``s (MOST, portfolio) below the achieved II — classified
  into exactly one binding-constraint class; nothing is scheduled or
  solved again, so an explanation cannot contradict the run it explains.
  When a :mod:`repro.analyze` certificate covers the whole gap, the
  attribution **cites the certificate** (machine-checkable) instead:

  ==================  ==================================================
  ``recurrence``      II == MinII and RecMII > ResMII (or every II below
                      proven infeasible with the recurrence side larger)
  ``resource``        II == MinII and ResMII >= RecMII (ditto)
  ``register_pressure``  a schedule existed below the achieved II but
                      register allocation failed there (or spill code
                      raised MinII to the achieved II)
  ``search_budget``   an attempt below stopped on an explicit effort
                      budget (backtrack/placement limit, solver unknown)
  ``search_exhausted``  an attempt below completed empty-handed within
                      budget (heuristic incompleteness)
  ``unschedulable``   the pipeliner produced no schedule at all
  ==================  ==================================================

Explanations are computed inside :mod:`repro.exec` cells
(``Cell(explain=True)``), which run the pipeliners; this module imports no
driver and no scheduler registry.  Its imports of the analyses it cites
are lazy: ``repro.obs`` is imported by the core pipeliners.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Every class :func:`classify` can emit — the closed vocabulary the CLI,
#: the HTML dashboard and the tests share.
BINDING_CLASSES = (
    "recurrence",
    "resource",
    "register_pressure",
    "search_budget",
    "search_exhausted",
    "unschedulable",
)

#: Classes that mean "the schedule is as good as the MinII bound allows".
AT_BOUND_CLASSES = ("recurrence", "resource")


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
    #: The production run's per-II trail (:func:`trail`), in run order.
    attempts: List[Dict[str, Any]] = field(default_factory=list)
    #: The trail step or certificate that decided the class (empty at MinII).
    evidence: Dict[str, Any] = field(default_factory=dict)
    #: Modulo reservation table rows of the achieved schedule (drill-down).
    mrt: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["utilization"] = {k: round(v, 4) for k, v in self.utilization.items()}
        return data

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
# Certificates and spill code: attributions that need no trail.
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
    still bind), the binding constraint is whatever the II−1 certificate
    counts, machine-checkably.
    """
    if getattr(result, "spilled", []):
        return None
    from ..analyze.bounds import compute_bounds

    target = result.ii - 1
    bounds = compute_bounds(original, machine, cap=target)
    if bounds.allocatable_bound != result.ii:
        return None  # gap not fully certified; the trail decides
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


# ---------------------------------------------------------------------------
# The trail and its classifier.
# ---------------------------------------------------------------------------


def trail(result) -> List[Dict[str, Any]]:
    """The production run's per-II trail as JSON-friendly steps, in run order.

    SGI and Rau94 results carry their final spill round's ``IIAttempt``s
    (``phase``, ``stop``), the optimal drivers their ``ProbeRecord``s
    (``backend``, ``answer``); a found II carries ``allocated`` and
    ``uncolored``.  Wall-clock seconds are dropped: an explanation depends
    only on what the run decided.
    """
    steps = [asdict(a) for a in getattr(result, "attempted", ())]
    steps += [p.to_dict() for p in getattr(result, "probes", ())]
    for step in steps:
        step.pop("seconds")
    return steps


def _verdict(step: Mapping[str, Any]) -> str:
    """What one trail step says about its II."""
    if step.get("allocated") is False:
        return "register"
    if step.get("stop") == "pruned" or step.get("answer") == "unsat":
        return "proven"
    if step.get("stop") == "exhausted":
        return "exhausted"
    if step.get("stop") == "budget" or step.get("answer") == "unknown":
        return "budget"
    return "found"  # a schedule that allocated, or a cross-checked sat


def _who(step: Mapping[str, Any]) -> str:
    if "backend" in step:
        return step["backend"].upper()
    return "Rau94" if step["phase"] == "rau" else f"the B&B ({step['phase']} search)"


def classify(
    steps: Sequence[Mapping[str, Any]], achieved_ii: int, profile: MinIIProfile
) -> Tuple[str, str, Dict[str, Any]]:
    """Attribute the gap below ``achieved_ii`` from a run's trail.

    An II with a proof (unsat, the window-collapse screen, a certified
    prune) is settled.  Across the unsettled IIs below, a schedule that
    failed to colour outranks a budget stop, which outranks an exhausted
    search; the step cited is the one nearest the achieved II.  When every
    II below is proven infeasible, MinII was a loose bound and its larger
    side binds.
    """
    below = [s for s in steps if s["ii"] < achieved_ii]
    proven = {s["ii"] for s in below if _verdict(s) == "proven"}
    for verdict in ("register", "budget", "exhausted"):
        hits = [s for s in below if s["ii"] not in proven and _verdict(s) == verdict]
        if not hits:
            continue
        step = dict(max(hits, key=lambda s: s["ii"]))
        k, who = step["ii"], _who(step)
        if verdict == "register":
            return "register_pressure", (
                f"{who} scheduled II={k} but {step['uncolored']} live range(s) "
                "failed to colour there; the driver moved to a higher II"
            ), step
        if verdict == "budget":
            why = step.get("detail") or ", ".join(
                f"{step[name]} {name}" for name in ("placements", "backtracks", "nodes")
                if step.get(name)
            )
            return "search_budget", (
                f"{who} stopped at II={k} on its search budget ({why})"
            ), step
        return "search_exhausted", (
            f"{who} exhausted its search at II={k} within budget"
        ), step
    step = dict(max((s for s in below if _verdict(s) == "proven"), key=lambda s: s["ii"]))
    if step.get("backend") == "screen":
        how = "the ASAP/ALAP window collapse"
    else:
        how = _who(step) if "backend" in step else "a certified static bound"
    return _bound_binding(profile), (
        f"every II tried below {achieved_ii} proven infeasible (II={step['ii']} "
        f"by {how}); MinII is a loose bound for this loop"
    ), step


def explain_result(result, scheduler: str, machine, with_mrt: bool = True) -> IIExplanation:
    """Attribute one already-computed pipeliner result from its own trail.

    ``result`` is any registered scheduler's result (:mod:`repro.schedulers`);
    nothing is scheduled, solved or allocated again.
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
        attempts=trail(result),
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

    # The optimal walk's heuristic fallback produced this schedule:
    # attribute it from the fallback result's own trail.
    fallback_result = result.fallback_result
    if explanation.fallback and fallback_result is not None:
        inner = explain_result(fallback_result, "sgi", machine, with_mrt=False)
        explanation.binding = inner.binding
        explanation.detail = f"optimal walk came back empty → heuristic fallback; {inner.detail}"
        explanation.evidence = inner.evidence
        explanation.attempts += inner.attempts
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

    # II > MinII: the spill check, then a certificate citation (when the
    # whole gap is certified), then the trail.
    attributed = (
        _spill_raised_minii(result, machine, result.ii)
        or _certified_gap(result, original, machine, profile)
        or classify(explanation.attempts, result.ii, profile)
    )
    explanation.binding, explanation.detail, explanation.evidence = attributed
    return explanation


# ---------------------------------------------------------------------------
# Presentation.
# ---------------------------------------------------------------------------


def format_explanations(explanations: Sequence[Mapping[str, Any]]) -> str:
    """The ``python -m repro explain`` table, one row per explanation dict
    (:meth:`IIExplanation.to_dict`; a crashed cell's dict carries an
    ``error`` instead of a ``binding``)."""
    headers = (
        "loop", "sched", "II", "MinII", "res/rec", "gap", "binding", "detail"
    )

    def text(value: Any) -> str:
        return "-" if value is None else str(value)

    rows = []
    counts: Dict[str, int] = {}
    for e in explanations:
        binding = e.get("binding", "error")
        counts[binding] = counts.get(binding, 0) + 1
        detail = e["detail"] if "binding" in e else e["error"].strip().splitlines()[-1]
        res_rec = "-" if "res_mii" not in e else f"{e['res_mii']}/{e['rec_mii']}"
        rows.append(
            (
                e["loop"],
                e["scheduler"],
                text(e.get("ii")),
                text(e.get("min_ii")),
                res_rec,
                text(e.get("gap")),
                binding,
                detail,
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
    lines.append("")
    lines.append(
        "bindings: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    return "\n".join(lines)


def explanations_to_json(explanations: Sequence[Mapping[str, Any]]) -> str:
    return json.dumps(list(explanations), indent=1, sort_keys=True)
