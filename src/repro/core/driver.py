"""The complete SGI-style heuristic software pipeliner (Section 2).

Composition, mirroring the MIPSpro pipeliner:

* per candidate loop, MinII/MaxII bound a two-phase binary II search;
* at each II, a branch-and-bound scheduler with catch-point pruning packs
  the operations, driven by up to four priority-list heuristics (FDMS,
  FDNMS, HMS, RHMS) — subsequent heuristics are tried only when earlier
  ones do not already achieve MinII.  So every order's MinII attempt runs
  first, in order, and the first order to allocate there wins; only when
  none does are the orders searched above MinII (not after a spill, when
  the search is a plain binary one, nor when a certified static bound
  already rules MinII out);
* memory-bank pairing is woven into the scheduling search;
* raw schedules get a pipestage-adjustment postpass, then modulo renaming
  and Chaitin-Briggs register allocation;
* allocation failures trigger exponentially growing spill rounds (1, 2,
  4, ... values), after which scheduling switches to a simple binary II
  search.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, Type, TypeVar

from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription, r8000
from ..obs import get_recorder
from ..regalloc.coloring import AllocationResult, allocate_schedule
from .bankpolish import polish_bank_schedule
from .bnb import BnBConfig
from .iisearch import IIAttempt, IISearchResult, _attempt, search_ii
from .membank import BankPairer
from .minii import max_ii, min_ii as compute_min_ii
from .pipestage import adjust_pipestages
from .priorities import PRODUCTION_ORDER_NAMES, production_orders
from .sched import Schedule, SchedulingStats
from .spill import Pick, RoundOutcome as _RoundOutcome, spill_loop


_Options = TypeVar("_Options")


def options_from_mapping(cls: Type[_Options], data: Mapping[str, Any]) -> _Options:
    """Build a scheduler's options dataclass, rejecting unknown keys.

    The one key check behind every scheduler's ``from_dict`` (the
    repro.exec cell form): a typo must fail loudly, not fall back to a
    default silently.
    """
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    return cls(**dict(data))


#: The heuristic backup's options (cell/JSON form): the optimal drivers'
#: fallback (§4.4) and the exec engine's timeout rescue both run the SGI
#: pipeliner without bank pairing.
FALLBACK_OPTIONS: Mapping[str, Any] = {"enable_membank": False}


@dataclass
class PipelinerOptions:
    """Configuration of the heuristic pipeliner (defaults = production)."""

    orders: Tuple[str, ...] = PRODUCTION_ORDER_NAMES
    enable_membank: bool = True
    bnb: BnBConfig = field(default_factory=BnBConfig)
    linear_ii_search: bool = False  # ablation of the binary II search
    # Consult the certified refined II lower bound (repro.analyze) before
    # each scheduling pass, skipping statically-infeasible IIs in the
    # search.  Outcome-identical: disabling it changes search effort only.
    static_bounds: bool = True

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelinerOptions":
        """Build options from a JSON-style mapping (the repro.exec cell form).

        ``orders`` may be a list; ``bnb`` a mapping of ``BnBConfig`` fields.
        """
        data = dict(data)
        if "orders" in data:
            data["orders"] = tuple(data["orders"])
        if "bnb" in data and isinstance(data["bnb"], Mapping):
            data["bnb"] = BnBConfig(**data["bnb"])
        return options_from_mapping(cls, data)


@dataclass
class PipelineResult:
    """Outcome of pipelining one loop, whichever registered pipeliner ran;
    an optimal driver's fallback is the heuristic's own result."""

    success: bool
    schedule: Optional[Schedule]
    allocation: Optional[AllocationResult]
    loop: Loop  # the loop actually scheduled (with spill code, if any)
    original: Loop
    min_ii: int  # MinII of the original loop body
    order_name: str = ""
    spill_rounds: int = 0
    spilled: List[str] = field(default_factory=list)
    # The driver's own effort: a SchedulingStats, or the optimal walk's
    # SolveStats for MOST and the portfolio (also when the walk fell back).
    stats: Any = field(default_factory=SchedulingStats)
    # The final spill round's II attempts, every order's in turn; each found
    # II carries its allocation outcome (repro.obs.explain reads this trail).
    attempted: List[IIAttempt] = field(default_factory=list)
    optimal: bool = False  # II-optimality proven (every smaller II infeasible)
    fallback_used: bool = False  # the heuristic backup produced this schedule
    # The optimal walk's record (repro.most.walk), empty for the heuristics;
    # probes are repro.portfolio.answer.ProbeRecord (not imported: the
    # heuristic's import closure keys its cached cells).
    probes: List[Any] = field(default_factory=list)
    buffers: Optional[int] = None  # the secondary objective value, when minimised
    skipped_backends: Tuple[str, ...] = ()  # requested but not runnable here

    @property
    def ii(self) -> Optional[int]:
        return self.schedule.ii if self.schedule is not None else None


def pipeline_loop(
    loop: Loop,
    machine: Optional[MachineDescription] = None,
    options: Optional[PipelinerOptions] = None,
) -> PipelineResult:
    """Software-pipeline ``loop``: returns the best allocated schedule found.

    The II search, spilling and register allocation run with memory-bank
    pairing out of the picture; when the bank heuristics are enabled, a
    final pass re-schedules the winning loop at the same II with pairing
    and risky-grouping avoidance, keeping the paired schedule only when it
    still register-allocates (Section 2.9: the exploration of other
    schedules at the same II with provably better stalling behaviour).

    The driver does not check its own output: an exec cell run with
    ``oracle=True`` reports :func:`repro.verify.result_report` on it.
    """
    machine = machine if machine is not None else r8000()
    options = options or PipelinerOptions()
    stats = SchedulingStats()
    run = spill_loop(
        loop,
        machine,
        "sgi",
        lambda current, spill_round: _schedule_and_allocate(
            current, machine, options, stats, after_spill=spill_round > 0
        ),
    )
    outcome, current, _, spill_round = run
    best = outcome.best
    if best is not None and options.enable_membank:
        paired = _repair_bank_grouping(current, machine, best[0].ii, options, stats, best)
        best = paired if paired is not None else best
    return heuristic_result(loop, machine, stats, run, best, spill_round)


def heuristic_result(
    loop: Loop,
    machine: MachineDescription,
    stats: SchedulingStats,
    run: Tuple[_RoundOutcome, Loop, List[str], int],
    best: Optional[Pick],
    spill_rounds: int,
) -> PipelineResult:
    """A heuristic pipeliner's result: ``run`` is what :func:`spill_loop`
    returned for the original ``loop``, ``best`` the pick it keeps."""
    outcome, current, spilled, _ = run
    schedule, allocation, order_name = best if best is not None else (None, None, "")
    return PipelineResult(
        success=best is not None,
        schedule=schedule,
        allocation=allocation,
        loop=current,
        original=loop,
        min_ii=compute_min_ii(loop, machine),
        order_name=order_name,
        spill_rounds=spill_rounds,
        spilled=spilled,
        stats=stats,
        attempted=outcome.attempted,
    )


def _schedule_and_allocate(
    loop: Loop,
    machine: MachineDescription,
    options: PipelinerOptions,
    stats: SchedulingStats,
    after_spill: bool,
) -> _RoundOutcome:
    """One scheduling pass: all priority orders at the best reachable II."""
    mii = compute_min_ii(loop, machine)
    maxii = max_ii(loop, machine)
    outcome = _RoundOutcome()
    orders = production_orders(loop, machine)
    rec = get_recorder()
    static_bound: Optional[int] = None
    if options.static_bounds:
        # Lazy import: repro.analyze builds on core's MinII machinery, so a
        # module-level import here would be circular.  Recomputed per spill
        # round — spill code changes the loop body and with it the bounds.
        from ..analyze.bounds import schedulable_bound

        static_bound = schedulable_bound(loop, machine, cap=maxii, base=mii)
        if rec.enabled and static_bound > mii:
            rec.event(
                "ii.static_bound", loop=loop.name, min_ii=mii, bound=static_bound
            )
    def search(order_name: str, top: int, into: SchedulingStats) -> IISearchResult:
        with rec.span("sgi.order", loop=loop.name, order=order_name):
            return search_ii(
                loop,
                machine,
                orders[order_name],
                mii,
                top,
                config=options.bnb,
                simple_binary=after_spill,
                linear=options.linear_ii_search,
                stats=into,
                static_bound=static_bound,
            )

    def allocate(order_name: str, found: IISearchResult) -> Pick:
        if found.ii == mii and order_name in at_min_ii:
            schedule, allocation = at_min_ii[order_name]
        else:
            times = adjust_pipestages(loop, found.ii, found.times)
            schedule = Schedule(
                loop=loop, machine=machine, ii=found.ii, times=times,
                producer=f"sgi/{order_name}",
            )
            allocation = allocate_schedule(schedule, machine)
            if found.ii == mii:
                at_min_ii[order_name] = (schedule, allocation)
        winner = next(a for a in found.attempted if a.success and a.ii == found.ii)
        winner.allocated, winner.uncolored = allocation.success, len(allocation.uncolored)
        return schedule, allocation, order_name

    # MinII first across orders: an order that allocates at MinII wins
    # outright, and an earlier order whose MinII attempt fails can only
    # finish above it, so each order's MinII attempt runs before any
    # order searches higher.  When none wins there, the per-order searches
    # below run as if this pass had not happened: the attempt memo answers
    # their MinII attempts, and the pass's trail and effort counters are
    # dropped (its search time is kept).
    at_min_ii: Dict[str, Tuple[Schedule, AllocationResult]] = {}
    if not after_spill and mii <= maxii and (static_bound is None or static_bound <= mii):
        first = SchedulingStats()
        trail: List[IIAttempt] = []
        for order_name in options.orders:
            found = search(order_name, mii, first)
            trail.extend(found.attempted)
            if found.success:
                entry = allocate(order_name, found)
                if entry[1].success:
                    stats.merge(first)
                    outcome.best, outcome.attempted = entry, trail
                    return outcome
        stats.seconds += first.seconds

    for order_name in options.orders:
        found = search(order_name, maxii, stats)
        outcome.attempted.extend(found.attempted)
        if not found.success:
            continue
        entry = allocate(order_name, found)
        schedule, allocation, _ = entry
        if allocation.success:
            if outcome.best is None or schedule.ii < outcome.best[0].ii:
                outcome.best = entry
            if schedule.ii == mii:
                return outcome  # cannot do better; common fast path
        else:
            if outcome.best_failed is None or _failure_rank(entry) < _failure_rank(
                outcome.best_failed
            ):
                outcome.best_failed = entry
    return outcome


def _repair_bank_grouping(
    loop: Loop,
    machine: MachineDescription,
    ii: int,
    options: PipelinerOptions,
    stats: SchedulingStats,
    base: Pick,
) -> Optional[Pick]:
    """The Section 2.9 same-II exploration of better-stalling schedules.

    Candidates, most bank-friendly first: (1) full re-schedules with bank
    pairing and risky-grouping avoidance per priority order, (2) the
    already-won schedule, (3) the other orders' unpaired schedules.  Every
    candidate is locally polished (memory ops relocated within dependence
    slack out of risky cycles — stage differences included) and kept only
    if it still register-allocates.
    """
    orders = production_orders(loop, machine)
    candidates: List[Tuple[Schedule, str]] = []

    def reschedule(order_name: str, with_pairer: bool) -> None:
        order = orders[order_name]
        pairer_factory = (lambda ii: BankPairer(loop, ii, order)) if with_pairer else None
        result = _attempt(loop, machine, ii, order, options.bnb, pairer_factory, stats)
        if result.success:
            times = adjust_pipestages(loop, ii, result.times)
            suffix = "+bank" if with_pairer else ""
            candidates.append(
                (
                    Schedule(
                        loop=loop, machine=machine, ii=ii, times=times,
                        producer=f"sgi/{order_name}{suffix}",
                    ),
                    order_name,
                )
            )

    base_schedule, base_allocation, base_order = base
    for order_name in options.orders:
        reschedule(order_name, with_pairer=True)
    candidates.append((base_schedule, base_order))
    for order_name in options.orders:
        if order_name != base_order:
            reschedule(order_name, with_pairer=False)

    # Weigh stall exposure against pipeline overhead in cycles: a risky
    # same-cycle pair can stall roughly every iteration, while fill/drain
    # overhead is paid once per loop entry — short-trip loops should not
    # buy bank safety with extra pipestages (Section 4.6's overhead
    # argument applied to Section 2.9).  Both the raw and the polished
    # form of every candidate compete.
    from ..pipeline.overhead import pipeline_overhead

    # Polish, allocation, risk and overhead depend only on a form's times
    # (the pairer's bank answers ignore its priority order), and equal ranks
    # keep the first: times already polished or costed cannot change the
    # winner, so each distinct schedule is polished and costed once.
    polished_from: Set[Tuple[Tuple[int, int], ...]] = set()
    costed: Set[Tuple[Tuple[int, int], ...]] = set()
    best: Optional[Tuple[Tuple[float, int], Schedule, AllocationResult, str]] = None
    for candidate, order_name in candidates:
        key = _times_key(candidate)
        if key in polished_from:
            continue
        polished_from.add(key)
        pairer = BankPairer(loop, ii, orders[order_name])
        forms = [candidate]
        polished = polish_bank_schedule(candidate, machine, pairer)
        if polished is not None:
            forms.append(polished)
        for form in forms:
            form_key = _times_key(form)
            if form_key in costed:
                continue
            costed.add(form_key)
            allocation = (
                base_allocation
                if form is base_schedule
                else allocate_schedule(form, machine)
            )
            if not allocation.success:
                continue
            risk = _residual_risk(form, pairer)
            overhead = pipeline_overhead(form, allocation, machine).total
            cost = overhead + 0.5 * risk * loop.trip_count
            rank = (cost, risk)
            if best is None or rank < best[0]:
                best = (rank, form, allocation, order_name)
    if best is None:
        return None
    return best[1], best[2], best[3]


def _times_key(schedule: Schedule) -> Tuple[Tuple[int, int], ...]:
    return tuple(sorted(schedule.times.items()))


def _residual_risk(schedule: Schedule, pairer: BankPairer) -> int:
    """Count of same-cycle reference pairs without a proven opposite bank."""
    by_slot: Dict[int, List[int]] = {}
    for op in schedule.loop.memory_ops():
        by_slot.setdefault(schedule.slot(op.index), []).append(op.index)
    risk = 0
    for ops in by_slot.values():
        for i, a in enumerate(ops):
            for b in ops[i + 1 :]:
                if (
                    pairer.runtime_relative_bank(
                        a, schedule.time(a), b, schedule.time(b)
                    )
                    != 1
                ):
                    risk += 1
    return risk


def _failure_rank(entry: Pick) -> Tuple[int, int]:
    schedule, allocation, _ = entry
    return (schedule.ii, len(allocation.uncolored))
