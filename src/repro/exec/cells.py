"""Experiment cells: the unit of work the parallel engine fans out.

A *cell* is one (loop, scheduler, options) combination, exactly what the
sequential experiment drivers used to evaluate inline.  Cells reference
loops by *registry key* (``livermore:lk01_hydro``, ``spec92:alvinn/...``)
rather than by value: workers re-materialise the loop from the workload
modules, which keeps cells trivially picklable and lets the cache key
incorporate the loop IR's content hash — an edited kernel invalidates its
own entries automatically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription, r8000
from ..schedulers import REGISTRY

#: Every registered pipeliner, plus the sequential list-scheduling baseline.
SCHEDULERS = (*REGISTRY, "baseline")


# ----------------------------------------------------------------------
# The loop registry: key -> Loop
# ----------------------------------------------------------------------
def _livermore(rest: str, machine: MachineDescription) -> Loop:
    from ..workloads.livermore import livermore_kernels

    for loop in livermore_kernels(machine):
        if loop.name == rest:
            return loop
    raise KeyError(f"no Livermore kernel named {rest!r}")


def _spec92(rest: str, machine: MachineDescription) -> Loop:
    from ..workloads.spec92 import spec92_suite

    bench_name, _, loop_name = rest.partition("/")
    for bench in spec92_suite(machine):
        if bench.name != bench_name:
            continue
        for loop in bench.loops:
            if loop.name == loop_name:
                return loop
        raise KeyError(f"benchmark {bench_name!r} has no loop {loop_name!r}")
    raise KeyError(f"no SPEC92 benchmark named {bench_name!r}")


def _scaling(rest: str, machine: MachineDescription) -> Loop:
    from ..workloads.generators import scaling_series

    return scaling_series([int(rest)], machine=machine)[0]


def _random(rest: str, machine: MachineDescription) -> Loop:
    from ..workloads.generators import random_loop

    return random_loop(int(rest), machine=machine)


def _fuzz(rest: str, machine: MachineDescription) -> Loop:
    from ..workloads.mutate import spec_from_token

    return spec_from_token(rest).build(machine)


def _recbound(rest: str, machine: MachineDescription) -> Loop:
    from ..workloads.recbound import recbound_kernel

    return recbound_kernel(rest, machine)


#: Loop sources by key prefix.  Tests may register extra sources (or shadow
#: existing ones) to model IR drift without editing workload modules.
LOOP_SOURCES: Dict[str, Callable[[str, MachineDescription], Loop]] = {
    "livermore": _livermore,
    "spec92": _spec92,
    "scaling": _scaling,
    "random": _random,
    "fuzz": _fuzz,
    "recbound": _recbound,
}

#: Sources whose keys are one-shot (fuzz tokens: every generated loop is a
#: new key, so memoising them would only grow the per-process memo without
#: ever hitting).
UNMEMOIZED_SOURCES = frozenset({"fuzz"})

_LOOP_MEMO: Dict[Tuple[str, str], Loop] = {}


def resolve_loop(key: str, machine: Optional[MachineDescription] = None) -> Loop:
    """Materialise the loop a registry key names (memoised per process)."""
    machine = machine if machine is not None else r8000()
    memo_key = (key, machine.name)
    if memo_key in _LOOP_MEMO:
        return _LOOP_MEMO[memo_key]
    prefix, _, rest = key.partition(":")
    try:
        source = LOOP_SOURCES[prefix]
    except KeyError:
        raise KeyError(
            f"unknown loop source {prefix!r} in {key!r} "
            f"(known: {', '.join(sorted(LOOP_SOURCES))})"
        ) from None
    loop = source(rest, machine)
    if prefix not in UNMEMOIZED_SOURCES:
        _LOOP_MEMO[memo_key] = loop
    return loop


def clear_loop_memo() -> None:
    """Drop the per-process loop memo (tests mutate ``LOOP_SOURCES``)."""
    _LOOP_MEMO.clear()


def corpus_loop_keys(corpus: str, machine: Optional[MachineDescription] = None) -> List[str]:
    """All registry keys of a named corpus (``livermore``, ``spec92`` or
    ``recbound``)."""
    machine = machine if machine is not None else r8000()
    if corpus == "livermore":
        from ..workloads.livermore import livermore_kernels

        return [f"livermore:{loop.name}" for loop in livermore_kernels(machine)]
    if corpus == "spec92":
        from ..workloads.spec92 import spec92_suite

        return [
            f"spec92:{bench.name}/{loop.name}"
            for bench in spec92_suite(machine)
            for loop in bench.loops
        ]
    if corpus == "recbound":
        from ..workloads.recbound import recbound_kernels

        return [f"recbound:{loop.name}" for loop in recbound_kernels(machine)]
    raise ValueError(
        f"unknown corpus {corpus!r} (expected livermore, spec92 or recbound)"
    )


# ----------------------------------------------------------------------
# Cells and their results
# ----------------------------------------------------------------------
def canonical_options(options: Optional[Mapping[str, Any]]) -> str:
    """Canonical JSON for an options mapping (sorted keys, no whitespace)."""
    return json.dumps(dict(options or {}), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Cell:
    """One schedulable unit: a loop, a scheduler, and its options.

    ``options_json`` is canonical JSON so cells are hashable dict keys and
    byte-identical options always map to the same cache entry.  ``trips``
    lists extra trip counts to simulate beyond the loop's nominal one;
    ``timeout`` is the hard per-cell wall-clock deadline enforced in the
    worker.  ``trace`` records the scheduler's search through ``repro.obs``
    (folded counters plus a per-cell JSONL event spool when ``trace_dir``
    is set); it participates in the cache key — traced and untraced results
    differ in payload — but ``trace_dir`` is just an output location and
    does not.  ``explain`` additionally attributes the cell's achieved II
    to its binding constraint (:mod:`repro.obs.explain`); like ``trace``
    it changes the result payload and therefore the cache key.  ``oracle``
    runs the fuzzer's dynamic oracle layers after scheduling — independent
    re-verification into ``verify_errors`` and a functional-equivalence
    simulation against the sequential reference into ``funcsim_ok`` — and
    also participates in the cache key.  ``analyze`` computes the certified
    refined II lower bound (:mod:`repro.analyze`) on the pristine loop and
    stores it (plus the full certificate payload) in the result; it changes
    the result payload and therefore participates in the cache key.
    """

    loop: str
    scheduler: str
    options_json: str = "{}"
    trips: Tuple[int, ...] = ()
    seed: int = 0
    timeout: Optional[float] = None
    simulate: bool = True
    verify: Optional[bool] = None
    trace: bool = False
    trace_dir: Optional[str] = None
    explain: bool = False
    oracle: bool = False
    analyze: bool = False

    def __post_init__(self) -> None:
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r} (expected one of {SCHEDULERS})"
            )

    @classmethod
    def make(
        cls,
        loop: str,
        scheduler: str,
        options: Optional[Mapping[str, Any]] = None,
        trips: Tuple[int, ...] = (),
        seed: int = 0,
        timeout: Optional[float] = None,
        simulate: bool = True,
        verify: Optional[bool] = None,
        trace: bool = False,
        trace_dir: Optional[str] = None,
        explain: bool = False,
        oracle: bool = False,
        analyze: bool = False,
    ) -> "Cell":
        return cls(
            loop=loop,
            scheduler=scheduler,
            options_json=canonical_options(options),
            trips=tuple(trips),
            seed=seed,
            timeout=timeout,
            simulate=simulate,
            verify=verify,
            trace=trace,
            trace_dir=trace_dir,
            explain=explain,
            oracle=oracle,
            analyze=analyze,
        )

    @property
    def options(self) -> Dict[str, Any]:
        return json.loads(self.options_json)

    @property
    def label(self) -> str:
        opts = "" if self.options_json == "{}" else f" {self.options_json}"
        return f"{self.loop} × {self.scheduler}{opts}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "loop": self.loop,
            "scheduler": self.scheduler,
            "options_json": self.options_json,
            "trips": list(self.trips),
            "seed": self.seed,
            "timeout": self.timeout,
            "simulate": self.simulate,
            "verify": self.verify,
            "trace": self.trace,
            "trace_dir": self.trace_dir,
            "explain": self.explain,
            "oracle": self.oracle,
            "analyze": self.analyze,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Cell":
        return cls(
            loop=data["loop"],
            scheduler=data["scheduler"],
            options_json=data.get("options_json", "{}"),
            trips=tuple(data.get("trips", ())),
            seed=data.get("seed", 0),
            timeout=data.get("timeout"),
            simulate=data.get("simulate", True),
            verify=data.get("verify"),
            trace=data.get("trace", False),
            trace_dir=data.get("trace_dir"),
            explain=data.get("explain", False),
            oracle=data.get("oracle", False),
            analyze=data.get("analyze", False),
        )


@dataclass
class CellResult:
    """Everything one cell's execution measured, JSON-serialisable.

    ``sim_cycles`` maps a trip-count label (``"default"`` or the decimal
    trip count) to simulated cycles including pipeline overhead.
    ``schedule_seconds`` is the scheduler-reported search time;
    ``wall_seconds`` the worker's wall clock for the whole cell.
    """

    loop: str
    scheduler: str
    options_json: str = "{}"
    success: bool = False
    error: Optional[str] = None
    n_ops: int = 0
    ii: Optional[int] = None
    min_ii: int = 0
    schedule_seconds: float = 0.0
    sched_wall_seconds: float = 0.0  # wall clock around the scheduler call only
    wall_seconds: float = 0.0
    timeout: bool = False
    fallback: bool = False
    optimal: bool = False
    producer: str = ""
    order_name: str = ""
    spill_rounds: int = 0
    n_stages: Optional[int] = None
    registers_used: Optional[int] = None
    overhead_cycles: Optional[int] = None
    sim_cycles: Dict[str, float] = field(default_factory=dict)
    # Search-effort counters folded from repro.obs when the cell was traced
    # (B&B nodes, ILP nodes, simplex iterations, ...), and the per-cell
    # JSONL event spool, when one was written.
    obs: Dict[str, float] = field(default_factory=dict)
    trace_file: Optional[str] = None
    # Binding-constraint attribution (repro.obs.explain) when the cell was
    # run with ``explain=True``: an IIExplanation.to_dict() payload.
    explanation: Optional[Dict[str, Any]] = None
    # Fuzz-oracle layers, filled when the cell was run with ``oracle=True``:
    # independent-verifier errors ("RULE: message" strings; empty = clean)
    # and whether the pipelined functional simulation matched the
    # sequential reference (None = oracle off or nothing to simulate).
    verify_errors: List[str] = field(default_factory=list)
    funcsim_ok: Optional[bool] = None
    funcsim_detail: str = ""
    # Certified refined II lower bound (repro.analyze) when the cell was run
    # with ``analyze=True``: the bound itself and the full LoopBounds payload
    # (certificates included), both computed on the pristine loop before any
    # seeded fault injection.
    refined_bound: Optional[int] = None
    bounds: Optional[Dict[str, Any]] = None
    # Portfolio cells only: per-backend solve seconds and the (II, backend,
    # answer) probe trail the cross-backend agreement oracle audits.
    backend_seconds: Dict[str, float] = field(default_factory=dict)
    backend_probes: List[Dict[str, Any]] = field(default_factory=list)
    # Filled in by the engine, not the worker:
    cache_hit: bool = False
    cache_key: str = ""
    attempts: int = 1

    def cycles(self, trips: Optional[int] = None) -> float:
        """Simulated cycles at a trip count requested by the cell."""
        label = "default" if trips is None else str(trips)
        try:
            return self.sim_cycles[label]
        except KeyError:
            raise KeyError(
                f"cell {self.loop} × {self.scheduler} did not simulate trips={label}"
            ) from None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "loop": self.loop,
            "scheduler": self.scheduler,
            "options_json": self.options_json,
            "success": self.success,
            "error": self.error,
            "n_ops": self.n_ops,
            "ii": self.ii,
            "min_ii": self.min_ii,
            "schedule_seconds": self.schedule_seconds,
            "sched_wall_seconds": self.sched_wall_seconds,
            "wall_seconds": self.wall_seconds,
            "timeout": self.timeout,
            "fallback": self.fallback,
            "optimal": self.optimal,
            "producer": self.producer,
            "order_name": self.order_name,
            "spill_rounds": self.spill_rounds,
            "n_stages": self.n_stages,
            "registers_used": self.registers_used,
            "overhead_cycles": self.overhead_cycles,
            "sim_cycles": dict(self.sim_cycles),
            "obs": dict(self.obs),
            "trace_file": self.trace_file,
            "explanation": self.explanation,
            "verify_errors": list(self.verify_errors),
            "funcsim_ok": self.funcsim_ok,
            "funcsim_detail": self.funcsim_detail,
            "refined_bound": self.refined_bound,
            "bounds": self.bounds,
            "backend_seconds": dict(self.backend_seconds),
            "backend_probes": list(self.backend_probes),
            "cache_hit": self.cache_hit,
            "cache_key": self.cache_key,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellResult":
        known = {f for f in cls.__dataclass_fields__}  # tolerate future fields
        return cls(**{k: v for k, v in data.items() if k in known})
