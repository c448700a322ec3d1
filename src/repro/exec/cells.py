"""Experiment cells: the unit of work the parallel engine fans out.

A *cell* is one (loop, scheduler, options) combination, exactly what the
sequential experiment drivers used to evaluate inline.  Cells reference
loops by *registry key* (``livermore:lk01_hydro``, ``spec92:alvinn/...``)
rather than by value: workers re-materialise the loop from the workload
modules, which keeps cells trivially picklable and their cache keys cheap.
A key names the loop by that registry key; the builder's source is in the
digest of the code the cell runs (:mod:`repro.exec.hashing`), so an
edited kernel still misses.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription, r8000
from ..schedulers import REGISTRY

#: Every registered pipeliner, plus the sequential list-scheduling baseline.
SCHEDULERS = (*REGISTRY, "baseline")


# ----------------------------------------------------------------------
# The loop registry: key -> Loop
# ----------------------------------------------------------------------
def _livermore_loops(machine: MachineDescription) -> Iterable[Tuple[str, Loop]]:
    from ..workloads.livermore import livermore_kernels

    return ((loop.name, loop) for loop in livermore_kernels(machine))


def _spec92_loops(machine: MachineDescription) -> Iterable[Tuple[str, Loop]]:
    from ..workloads.spec92 import spec92_suite

    return (
        (f"{bench.name}/{loop.name}", loop)
        for bench in spec92_suite(machine)
        for loop in bench.loops
    )


def _recbound_loops(machine: MachineDescription) -> Iterable[Tuple[str, Loop]]:
    from ..workloads.recbound import recbound_kernels

    return ((loop.name, loop) for loop in recbound_kernels(machine))


#: The committed corpora, in the order ``all`` lists them, and the builder
#: of each one's ``(name, loop)`` pairs (keyed ``<corpus>:<name>``).
CORPORA: Dict[str, Callable[[MachineDescription], Iterable[Tuple[str, Loop]]]] = {
    "livermore": _livermore_loops,
    "spec92": _spec92_loops,
    "recbound": _recbound_loops,
}


def _corpus_loops(corpus: str, machine: MachineDescription) -> Dict[str, Loop]:
    """A committed corpus, name -> loop, built once per process and machine.

    Listing a corpus and resolving its keys read this one build; the first
    loop of a repeated name wins.  :func:`clear_loop_memo` drops it.
    """
    memo_key = (corpus, machine.name)
    if memo_key not in _CORPUS_MEMO:
        loops: Dict[str, Loop] = {}
        for rest, loop in CORPORA[corpus](machine):
            loops.setdefault(rest, loop)
        _CORPUS_MEMO[memo_key] = loops
    return _CORPUS_MEMO[memo_key]


def _livermore(rest: str, machine: MachineDescription) -> Loop:
    kernels = _corpus_loops("livermore", machine)
    if rest not in kernels:
        raise KeyError(f"no Livermore kernel named {rest!r}")
    return kernels[rest]


def _spec92(rest: str, machine: MachineDescription) -> Loop:
    loops = _corpus_loops("spec92", machine)
    if rest in loops:
        return loops[rest]
    bench_name, _, loop_name = rest.partition("/")
    if any(key.partition("/")[0] == bench_name for key in loops):
        raise KeyError(f"benchmark {bench_name!r} has no loop {loop_name!r}")
    raise KeyError(f"no SPEC92 benchmark named {bench_name!r}")


def _recbound(rest: str, machine: MachineDescription) -> Loop:
    kernels = _corpus_loops("recbound", machine)
    if rest not in kernels:
        raise KeyError(f"unknown recbound kernel {rest!r}; known: {', '.join(kernels)}")
    return kernels[rest]


def _scaling(rest: str, machine: MachineDescription) -> Loop:
    from ..workloads.generators import scaling_series

    return scaling_series([int(rest)], machine=machine)[0]


def _random(rest: str, machine: MachineDescription) -> Loop:
    from ..workloads.generators import random_loop

    return random_loop(int(rest), machine=machine)


def _fuzz(rest: str, machine: MachineDescription) -> Loop:
    from ..workloads.mutate import spec_from_token

    return spec_from_token(rest).build(machine)


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
_CORPUS_MEMO: Dict[Tuple[str, str], Dict[str, Loop]] = {}


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
    """Drop the per-process loop memos (tests mutate ``LOOP_SOURCES``)."""
    _LOOP_MEMO.clear()
    _CORPUS_MEMO.clear()


def corpus_loop_keys(corpus: str, machine: Optional[MachineDescription] = None) -> List[str]:
    """All registry keys of a named corpus: ``livermore``, ``spec92``,
    ``recbound``, or ``all`` (the three in that order)."""
    machine = machine if machine is not None else r8000()
    if corpus == "all":
        return [key for name in CORPORA for key in corpus_loop_keys(name, machine)]
    if corpus not in CORPORA:
        raise ValueError(
            f"unknown corpus {corpus!r} (expected livermore, spec92, recbound or all)"
        )
    return [f"{corpus}:{rest}" for rest in _corpus_loops(corpus, machine)]


def corpus_cells(
    corpus: str,
    schedulers: Sequence[str],
    options: Mapping[str, Mapping[str, Any]],
    limit: Optional[int] = None,
    **cell_fields: Any,
) -> List[Cell]:
    """The (loop × scheduler) cells of a corpus, loops outer, schedulers
    inner: each scheduler runs ``options[scheduler]``, and ``cell_fields``
    go to every :meth:`Cell.make`.  ``limit`` keeps the first loops only."""
    return [
        Cell.make(key, scheduler, options[scheduler], **cell_fields)
        for key in corpus_loop_keys(corpus)[:limit]
        for scheduler in schedulers
    ]


# ----------------------------------------------------------------------
# Cells and their results
# ----------------------------------------------------------------------
def canonical_options(options: Optional[Mapping[str, Any]]) -> str:
    """Canonical JSON for an options mapping (sorted keys, no whitespace)."""
    return json.dumps(dict(options or {}), sort_keys=True, separators=(",", ":"))


def _fields_of(obj: Any) -> Dict[str, Any]:
    """A dataclass instance as a dict of its fields (containers copied)."""
    return {f.name: copy.copy(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def _known_fields(cls: type, data: Mapping[str, Any]) -> Dict[str, Any]:
    """The entries of ``data`` that name a field of ``cls`` (payloads from
    other versions may carry more or fewer)."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in data.items() if k in names}


@dataclass(frozen=True)
class Cell:
    """One schedulable unit: a loop, a scheduler, and its options.

    Every field but ``trace_dir`` is in the cache key
    (:func:`repro.exec.hashing.cell_key`), next to the digest of the code
    the cell runs.  ``options_json`` is canonical JSON so cells are
    hashable dict keys and byte-identical options always map to the same
    cache entry.  ``trips`` lists extra trip counts to simulate beyond the
    loop's nominal one; ``timeout`` is the hard per-cell wall-clock
    deadline enforced in the worker.  ``trace`` records the scheduler's
    search through ``repro.obs`` (folded counters plus a per-cell JSONL
    event spool when ``trace_dir`` is set; ``trace_dir`` is just an output
    location).  ``explain`` additionally attributes the cell's achieved II
    to its binding constraint (:mod:`repro.obs.explain`).  ``oracle`` runs
    the fuzzer's dynamic oracle layers after scheduling — the independent
    :func:`repro.verify.result_report` into
    ``verify_errors``/``verify_warnings`` and a functional-equivalence
    simulation against the sequential reference into ``funcsim_ok``.  It
    is the only way a run is verified, so a verified answer is never
    served from an unverified cache entry.  ``analyze`` computes the
    certified refined II lower bound (:mod:`repro.analyze`) on the
    pristine loop and stores the bound in the result (``repro analyze
    --json`` regenerates its certificates).  Each flag changes the
    result's payload, which is why each is in the key.
    """

    loop: str
    scheduler: str
    options_json: str = "{}"
    trips: Tuple[int, ...] = ()
    seed: int = 0
    timeout: Optional[float] = None
    simulate: bool = True
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
        object.__setattr__(self, "trips", tuple(self.trips))

    @classmethod
    def make(
        cls,
        loop: str,
        scheduler: str,
        options: Optional[Mapping[str, Any]] = None,
        **fields: Any,
    ) -> "Cell":
        """A cell with ``options`` canonicalised; ``fields`` are the other
        fields by name (``trips``, ``seed``, ``timeout``, ...)."""
        return cls(loop, scheduler, canonical_options(options), **fields)

    @property
    def options(self) -> Dict[str, Any]:
        return json.loads(self.options_json)

    @property
    def label(self) -> str:
        opts = "" if self.options_json == "{}" else f" {self.options_json}"
        return f"{self.loop} × {self.scheduler}{opts}"

    def to_dict(self) -> Dict[str, Any]:
        return _fields_of(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Cell":
        return cls(**_known_fields(cls, data))


@dataclass
class CellResult:
    """Everything one cell's execution measured, JSON-serialisable.

    ``sim_cycles`` maps a trip-count label (``"default"`` or the decimal
    trip count) to simulated cycles including pipeline overhead.
    ``schedule_seconds`` is the scheduler-reported search time;
    ``wall_seconds`` the worker's wall clock for the whole cell;
    ``oracle_seconds`` the wall clock around the oracle's layers (0.0 when
    the cell ran without ``oracle``).
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
    oracle_seconds: float = 0.0  # wall clock around the oracle's layers only
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
    # independent-verifier errors and warnings ("RULE: message" strings;
    # empty = clean) and whether the pipelined functional simulation
    # matched the sequential reference (None = oracle off or nothing to
    # simulate).
    verify_errors: List[str] = field(default_factory=list)
    verify_warnings: List[str] = field(default_factory=list)
    funcsim_ok: Optional[bool] = None
    funcsim_detail: str = ""
    # Certified refined II lower bound (repro.analyze) when the cell was run
    # with ``analyze=True``, computed on the pristine loop before any seeded
    # fault injection.
    refined_bound: Optional[int] = None
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
        return _fields_of(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellResult":
        return cls(**_known_fields(cls, data))
