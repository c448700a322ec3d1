"""Benchmark emission: timed cell sweeps written as machine-readable JSON.

``run_pipeline_bench`` is the CI workhorse: every (loop × scheduler) cell of
the standard corpora, fanned out by :class:`~repro.exec.engine.ExecEngine`,
timed, and written to ``benchmarks/output/BENCH_pipeline.json`` together
with solver-budget accounting (timeouts, fallbacks, native-vs-rescued
schedule time) and the run's verdict (``totals.violations``, see
:mod:`repro.exec.verdict`).  ``run_sweep`` is the same machinery pointed
at one corpus, into the ``BENCH_sweep_<corpus>.json`` that ``repro
verify``, ``explain`` and ``analyze`` print from.  A run over a subset of
the registry's schedulers or loops writes a name that carries the subset
(``BENCH_sweep_livermore_sgi-rau_limit3.json``), never the whole grid's.
``write_bench_json`` is reused by the experiment CLI to emit per-figure
``BENCH_<figure>.json`` files.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.export import atomic_write_text
from ..obs.history import append_history
from ..obs.provenance import provenance
from ..obs.report import geomean
from ..schedulers import REGISTRY
from .cache import DEFAULT_CACHE_DIR, ScheduleCache
from .cells import Cell, CellResult, corpus_cells
from .hashing import code_version
from .engine import ExecEngine, ProgressFn
from .verdict import grid_violations

DEFAULT_OUTPUT_DIR = pathlib.Path("benchmarks") / "output"

#: Fields every per-cell record in a BENCH json carries (the acceptance
#: contract of the bench layer).
BENCH_CELL_FIELDS = (
    "loop",
    "scheduler",
    "ii",
    "schedule_seconds",
    "timeout",
    "fallback",
    "sim_cycles",
)


@dataclass
class BenchOptions:
    """Knobs of a bench run; ``quick`` is the CI smoke configuration."""

    quick: bool = False
    corpora: Tuple[str, ...] = ("livermore", "spec92", "recbound")
    schedulers: Tuple[str, ...] = tuple(REGISTRY)
    jobs: int = 1
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR  # None = no result cache
    cell_timeout: Optional[float] = 120.0
    seed: int = 0
    limit: Optional[int] = None  # only the first N loops of each corpus
    output_dir: pathlib.Path = field(default_factory=lambda: DEFAULT_OUTPUT_DIR)
    # Search-effort tracing (repro.obs): every cell runs under a live
    # recorder, folded counters land in the BENCH json, and per-cell JSONL
    # spools under ``trace_dir`` are merged into one Chrome trace.  Traced
    # cells bypass the result cache: their counters, timings and spools
    # must come from live solves into this run's ``trace_dir``.
    trace: bool = False
    trace_dir: Optional[str] = None
    # Run-history store (repro.obs.history): when set, the finished BENCH
    # payload is also filed as a timestamped record under this root so the
    # trend layer (``repro trend``) has a longitudinal series.  None keeps
    # programmatic/test runs out of any shared history; the CLI defaults
    # this to ``benchmarks/history``.
    history_dir: Optional[pathlib.Path] = None

    def __post_init__(self) -> None:
        if self.quick:
            # The smoke lane: the small corpora (the ``quick`` preset also
            # tightens MOST's node budget).  recbound stays in — it is six
            # loops, and it is the corpus where the certified static bounds
            # actually prune the search.
            self.corpora = ("livermore", "recbound")
            self.cell_timeout = 60.0
        self.output_dir = pathlib.Path(self.output_dir)

    def scheduler_options(self, scheduler: str) -> Dict:
        """A cell's options: the registry's ``quick`` or ``bench`` preset
        (``{}`` for the baseline, which is no registry entry)."""
        if scheduler not in REGISTRY:
            return {}
        return REGISTRY[scheduler].preset("quick" if self.quick else "bench")

    def report_name(self, name: str) -> str:
        """The name this run's BENCH json and history series go under:
        ``name`` for the whole grid, ``name`` plus the subset for a run
        over another scheduler set than the registry's or under
        ``limit``, so a subset never overwrites the whole grid's file."""
        if set(self.schedulers) != set(REGISTRY):
            name += "_" + "-".join(self.schedulers)
        if self.limit is not None:
            name += f"_limit{self.limit}"
        return name

    def engine(self, progress: Optional[ProgressFn] = None) -> ExecEngine:
        cached = self.cache_dir is not None and not self.trace
        return ExecEngine(
            jobs=self.jobs,
            cache=ScheduleCache(self.cache_dir) if cached else None,
            default_timeout=self.cell_timeout,
            progress=progress,
        )


def bench_cells(options: BenchOptions) -> List[Cell]:
    """The (loop × scheduler) cell grid of a bench run: every cell verified,
    explained and carrying its certified bound, so one grid serves every
    view."""
    presets = {name: options.scheduler_options(name) for name in options.schedulers}
    return [
        cell
        for corpus in options.corpora
        for cell in corpus_cells(
            corpus,
            options.schedulers,
            presets,
            options.limit,
            seed=options.seed,
            trace=options.trace,
            trace_dir=options.trace_dir,
            oracle=True,
            explain=True,
            analyze=True,
        )
    ]


def print_progress(done: int, total: int, cell: Cell, result: CellResult) -> None:
    """Default progress stream: one line per finished cell."""
    flags = "".join(
        tag
        for tag, on in (
            (" cached", result.cache_hit),
            (" TIMEOUT", result.timeout),
            (" fallback", result.fallback),
            (" ERROR", result.error is not None),
        )
        if on
    )
    ii = "-" if result.ii is None else str(result.ii)
    print(
        f"[{done}/{total}] {cell.loop} × {cell.scheduler}"
        f" II={ii} {result.schedule_seconds:.3f}s{flags}",
        flush=True,
    )


def summarise(results: Sequence[CellResult]) -> Dict:
    """Aggregate accounting over one run's cell results, and the run's
    verdict (:func:`~repro.exec.verdict.grid_violations`) as
    ``violations``."""
    by_sched: Dict[str, Dict] = {}
    for res in results:
        agg = by_sched.setdefault(
            res.scheduler,
            {
                "cells": 0,
                "schedule_seconds": 0.0,
                "oracle_seconds": 0.0,
                "wall_seconds": 0.0,
                "timeouts": 0,
                "fallbacks": 0,
                "errors": 0,
                "failures": 0,
                "at_min_ii": 0,
            },
        )
        agg["cells"] += 1
        agg["schedule_seconds"] += res.schedule_seconds
        agg["oracle_seconds"] += res.oracle_seconds
        agg["wall_seconds"] += res.wall_seconds
        agg["timeouts"] += int(res.timeout)
        agg["fallbacks"] += int(res.fallback)
        agg["errors"] += int(res.error is not None)
        agg["failures"] += int(not res.success)
        agg["at_min_ii"] += int(res.ii is not None and res.ii == res.min_ii)
        for name, value in (res.obs or {}).items():
            obs = agg.setdefault("obs", {})
            obs[name] = obs.get(name, 0) + value
        binding = (res.explanation or {}).get("binding")
        if binding:
            bindings = agg.setdefault("bindings", {})
            bindings[binding] = bindings.get(binding, 0) + 1
        # MOST and portfolio cells: per-backend solve-time columns and the
        # length of the probe trail the agreement layer judges.
        for name, seconds in (res.backend_seconds or {}).items():
            backends = agg.setdefault("backend_seconds", {})
            backends[name] = backends.get(name, 0.0) + seconds
        if res.backend_probes:
            agg["probes"] = agg.get("probes", 0) + len(res.backend_probes)

    totals: Dict = {
        "cells": len(results),
        "timeouts": sum(a["timeouts"] for a in by_sched.values()),
        "fallbacks": sum(a["fallbacks"] for a in by_sched.values()),
        "errors": sum(a["errors"] for a in by_sched.values()),
        "cache_hits": sum(1 for r in results if r.cache_hit),
        "violations": grid_violations(results),
        "by_scheduler": by_sched,
    }
    for key in ("obs", "bindings", "backend_seconds"):
        merged: Dict[str, float] = {}
        for agg in by_sched.values():
            for name, value in agg.get(key, {}).items():
                merged[name] = merged.get(name, 0) + value
        if merged:
            totals[key] = merged
    if "backend_seconds" in totals:
        totals["probes"] = sum(a.get("probes", 0) for a in by_sched.values())

    # The paper's §4.7 headline: ILP schedule time over heuristic schedule
    # time, total and restricted to loops the ILP solved natively.
    if "most" in by_sched and "sgi" in by_sched:
        sgi = {r.loop: r for r in results if r.scheduler == "sgi"}
        ratios, native_ratios = [], []
        for res in results:
            if res.scheduler != "most" or res.loop not in sgi:
                continue
            heuristic = max(sgi[res.loop].schedule_seconds, 1e-4)
            ratios.append(res.schedule_seconds / heuristic)
            if not res.fallback and not res.timeout:
                native_ratios.append(res.schedule_seconds / heuristic)
        totals["ilp_vs_heuristic_time_geomean"] = geomean(ratios)
        totals["ilp_vs_heuristic_time_geomean_native"] = geomean(native_ratios)
    return totals


def build_report(
    name: str,
    options: BenchOptions,
    cells: Sequence[Cell],
    results: Dict[Cell, CellResult],
    wall_seconds: float,
    cache: Optional[ScheduleCache],
) -> Dict:
    """A bench run's BENCH payload: the figure payload plus the run's knobs."""
    return {
        **figure_report(name, [results[cell] for cell in cells]),
        "quick": options.quick,
        "jobs": options.jobs,
        "corpora": list(options.corpora),
        "schedulers": list(options.schedulers),
        "cell_timeout": options.cell_timeout,
        "limit": options.limit,
        "wall_seconds": wall_seconds,
        "cache": None
        if cache is None
        else {"dir": str(cache.directory), **cache.stats.as_dict()},
    }


def write_bench_json(payload: Dict, output_dir=DEFAULT_OUTPUT_DIR, name: Optional[str] = None) -> pathlib.Path:
    """Write one BENCH_<name>.json under ``output_dir``; returns the path."""
    output_dir = pathlib.Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / f"BENCH_{name or payload['name']}.json"
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def figure_report(name: str, results: Sequence[CellResult]) -> Dict:
    """A BENCH payload for one experiment figure's cell measurements."""
    return {
        "name": name,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "code_version": code_version(),
        "provenance": provenance(),
        "machine": "r8000",
        "totals": summarise(results),
        "cells": [res.to_dict() for res in results],
    }


def merge_trace_dir(trace_dir) -> Optional[pathlib.Path]:
    """Merge per-cell JSONL spools under ``trace_dir`` into one Chrome trace.

    Workers each wrote their own ``*.jsonl`` file; the merged, ts-sorted
    event array lands next to them as ``trace.json``, loadable directly in
    ``chrome://tracing`` or Perfetto.  Returns the path, or ``None`` when
    there was nothing to merge.
    """
    from ..obs.export import merge_jsonl, write_chrome_trace

    trace_dir = pathlib.Path(trace_dir)
    spools = sorted(trace_dir.glob("*.jsonl"))
    if not spools:
        return None
    return write_chrome_trace(merge_jsonl(spools), trace_dir / "trace.json")


def run_pipeline_bench(
    options: Optional[BenchOptions] = None,
    progress: Optional[ProgressFn] = print_progress,
    name: str = "pipeline",
) -> Tuple[Dict, pathlib.Path]:
    """The standard bench: corpora × schedulers, emitted as BENCH_<name>.json
    (``name`` and its subset, see :meth:`BenchOptions.report_name`)."""
    options = options or BenchOptions()
    cells = bench_cells(options)  # an unknown corpus fails before the cache opens
    engine = options.engine(progress)
    start = time.perf_counter()
    results = engine.run(cells)
    report = build_report(
        options.report_name(name), options, cells, results,
        time.perf_counter() - start, engine.cache,
    )
    if options.trace and options.trace_dir:
        merged = merge_trace_dir(options.trace_dir)
        report["trace"] = None if merged is None else str(merged)
    append_history(report, history_dir=options.history_dir)
    return report, write_bench_json(report, options.output_dir)


def run_sweep(
    corpus: str,
    options: Optional[BenchOptions] = None,
    progress: Optional[ProgressFn] = print_progress,
) -> Tuple[Dict, pathlib.Path]:
    """Bench one corpus with the configured scheduler subset."""
    options = options or BenchOptions()
    options.corpora = (corpus,)
    return run_pipeline_bench(options, progress, name=f"sweep_{corpus}")
