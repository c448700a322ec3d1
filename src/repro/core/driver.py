"""The complete SGI-style heuristic software pipeliner (Section 2).

Composition, mirroring the MIPSpro pipeliner:

* per candidate loop, MinII/MaxII bound a two-phase binary II search;
* at each II, a branch-and-bound scheduler with catch-point pruning packs
  the operations, driven by up to four priority-list heuristics (FDMS,
  FDNMS, HMS, RHMS) — subsequent heuristics are tried only when earlier
  ones do not already achieve MinII;
* memory-bank pairing is woven into the scheduling search;
* raw schedules get a pipestage-adjustment postpass, then modulo renaming
  and Chaitin-Briggs register allocation;
* allocation failures trigger exponentially growing spill rounds (1, 2,
  4, ... values), after which scheduling switches to a simple binary II
  search.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type, TypeVar

from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription, r8000
from ..obs import get_recorder
from ..regalloc.coloring import AllocationResult, allocate_schedule
from .bankpolish import polish_bank_schedule
from .bnb import BnBConfig, modulo_schedule_bnb, prepare_attempt
from .iisearch import search_ii
from .membank import BankPairer
from .minii import min_ii as compute_min_ii
from .pipestage import adjust_pipestages
from .priorities import PRODUCTION_ORDER_NAMES, production_orders
from .sched import Schedule, SchedulingStats
from .spill import MAX_SPILL_ROUNDS, choose_spill_candidates, insert_spills


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
    strict_pairing: bool = True
    bnb: BnBConfig = field(default_factory=BnBConfig)
    max_spill_rounds: int = MAX_SPILL_ROUNDS
    ii_cap_factor: int = 2
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
    """Outcome of pipelining one loop."""

    success: bool
    schedule: Optional[Schedule]
    allocation: Optional[AllocationResult]
    loop: Loop  # the loop actually scheduled (with spill code, if any)
    original: Loop
    min_ii: int  # MinII of the original loop body
    order_name: str = ""
    spill_rounds: int = 0
    spilled: List[str] = field(default_factory=list)
    stats: SchedulingStats = field(default_factory=SchedulingStats)
    # The common read surface of every scheduler's result (repro.schedulers):
    # the heuristic neither proves II-optimality nor falls back.
    optimal = False
    fallback_used = False
    fallback_result = None

    @property
    def ii(self) -> Optional[int]:
        return self.schedule.ii if self.schedule is not None else None


def _maybe_verify(result, machine: MachineDescription, verify: Optional[bool]):
    """Run the independent checkers over a driver result when enabled.

    Shared by every pipeliner.  ``verify=None`` defers to the process
    default (:func:`repro.verify.set_default_verify`); imports are lazy
    because ``repro.verify`` imports the drivers for its corpus sweeps.
    """
    from ..verify import resolve_verify
    from ..verify.api import enforce_verified

    if resolve_verify(verify):
        enforce_verified(result, machine)
    return result


def pipeline_loop(
    loop: Loop,
    machine: Optional[MachineDescription] = None,
    options: Optional[PipelinerOptions] = None,
    verify: Optional[bool] = None,
) -> PipelineResult:
    """Software-pipeline ``loop``: returns the best allocated schedule found.

    The II search, spilling and register allocation run with memory-bank
    pairing out of the picture; when the bank heuristics are enabled, a
    final pass re-schedules the winning loop at the same II with pairing
    and risky-grouping avoidance, keeping the paired schedule only when it
    still register-allocates (Section 2.9: the exploration of other
    schedules at the same II with provably better stalling behaviour).

    ``verify=True`` (or a true process default, see
    :func:`repro.verify.set_default_verify`) cross-checks every successful
    result with the independent ``repro.verify`` analyzers and raises
    :class:`repro.verify.VerificationError` on any ERROR diagnostic.
    """
    machine = machine if machine is not None else r8000()
    options = options or PipelinerOptions()
    stats = SchedulingStats()
    original = loop
    original_min_ii = compute_min_ii(loop, machine)

    rec = get_recorder()
    current = loop
    spilled_total: List[str] = []
    spill_budget = 1
    rounds_done = 0
    for spill_round in range(options.max_spill_rounds + 1):
        rounds_done = spill_round
        with rec.span("sgi.round", loop=current.name, spill_round=spill_round):
            outcome = _schedule_and_allocate(
                current, machine, options, stats, after_spill=spill_round > 0
            )
        if outcome.best is not None:
            schedule, allocation, order_name = outcome.best
            if options.enable_membank:
                paired = _repair_bank_grouping(
                    current, machine, schedule.ii, options, stats, outcome.best
                )
                if paired is not None:
                    schedule, allocation, order_name = paired
            return _maybe_verify(
                PipelineResult(
                    success=True,
                    schedule=schedule,
                    allocation=allocation,
                    loop=current,
                    original=original,
                    min_ii=original_min_ii,
                    order_name=order_name,
                    spill_rounds=spill_round,
                    spilled=spilled_total,
                    stats=stats,
                ),
                machine,
                verify,
            )
        if outcome.best_failed is None:
            break  # could not even find a schedule: give up entirely
        failed_schedule, failed_alloc, _ = outcome.best_failed
        # The exponential budget (1, 2, 4, ...) never needs to exceed the
        # number of values that actually failed to colour.
        distinct_failed = len({lr.value for lr in failed_alloc.uncolored})
        candidates = choose_spill_candidates(
            failed_alloc, current, set(spilled_total),
            min(spill_budget, max(1, distinct_failed)),
        )
        if not candidates or spill_round == options.max_spill_rounds:
            break
        rec.counter("spill.rounds")
        current = insert_spills(current, machine, candidates)
        spilled_total.extend(candidates)
        spill_budget *= 2
    return PipelineResult(
        success=False,
        schedule=None,
        allocation=None,
        loop=current,
        original=original,
        min_ii=original_min_ii,
        spill_rounds=rounds_done,
        spilled=spilled_total,
        stats=stats,
    )


@dataclass
class _RoundOutcome:
    best: Optional[Tuple[Schedule, AllocationResult, str]] = None
    best_failed: Optional[Tuple[Schedule, AllocationResult, str]] = None


def _schedule_and_allocate(
    loop: Loop,
    machine: MachineDescription,
    options: PipelinerOptions,
    stats: SchedulingStats,
    after_spill: bool,
) -> _RoundOutcome:
    """One scheduling pass: all priority orders at the best reachable II."""
    mii = compute_min_ii(loop, machine)
    maxii = options.ii_cap_factor * mii
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
    for order_name in options.orders:
        order = orders[order_name]
        with rec.span("sgi.order", loop=loop.name, order=order_name):
            found = search_ii(
                loop,
                machine,
                order,
                mii,
                maxii,
                config=options.bnb,
                simple_binary=after_spill,
                linear=options.linear_ii_search,
                stats=stats,
                static_bound=static_bound,
            )
        if not found.success:
            continue
        times = adjust_pipestages(loop, found.ii, found.times)
        schedule = Schedule(
            loop=loop, machine=machine, ii=found.ii, times=times,
            producer=f"sgi/{order_name}",
        )
        allocation = allocate_schedule(schedule, machine)
        entry = (schedule, allocation, order_name)
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
    base: Tuple[Schedule, AllocationResult, str],
) -> Optional[Tuple[Schedule, AllocationResult, str]]:
    """The Section 2.9 same-II exploration of better-stalling schedules.

    Candidates, most bank-friendly first: (1) full re-schedules with bank
    pairing and risky-grouping avoidance per priority order, (2) the
    already-won schedule, (3) the other orders' unpaired schedules.  Every
    candidate is locally polished (memory ops relocated within dependence
    slack out of risky cycles — stage differences included) and kept only
    if it still register-allocates.
    """
    import time as _time

    orders = production_orders(loop, machine)
    candidates: List[Tuple[Schedule, str]] = []

    def reschedule(order_name: str, with_pairer: bool) -> None:
        order = orders[order_name]
        pairer = (
            BankPairer(loop, ii, order, strict=options.strict_pairing)
            if with_pairer
            else None
        )
        prepare_attempt(loop, machine, ii, order)
        start = _time.perf_counter()
        result = modulo_schedule_bnb(loop, machine, ii, order, options.bnb, pairer)
        stats.attempts += 1
        stats.placements += result.placements
        stats.backtracks += result.backtracks
        stats.seconds += _time.perf_counter() - start
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

    best: Optional[Tuple[Tuple[float, int], Schedule, AllocationResult, str]] = None
    for candidate, order_name in candidates:
        pairer = BankPairer(loop, ii, orders[order_name], strict=options.strict_pairing)
        forms = [candidate]
        polished = polish_bank_schedule(candidate, machine, pairer)
        if polished is not None:
            forms.append(polished)
        for form in forms:
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


def _failure_rank(entry: Tuple[Schedule, AllocationResult, str]) -> Tuple[int, int]:
    schedule, allocation, _ = entry
    return (schedule.ii, len(allocation.uncolored))
