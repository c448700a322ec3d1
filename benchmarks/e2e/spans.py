"""The traced run: span wrappers around each layer's entry points.

Every function in :data:`WRAPPED` is replaced, for the duration of a traced
round, by a wrapper that records a span (name, start, end, parent, cell)
and folds counts out of the function's return value.  A function is
rebound on its defining module and in every ``repro`` module that imported
it by name, so calls through either path are seen.  Spans stay in memory
and are written out as a Chrome trace when the run ends.

The program's own recorder (``Cell.trace``) is deliberately not used: a
live recorder turns off B&B attempt memoization, so it would time
different work than an untraced run does.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Counters = Dict[str, float]
CountFn = Callable[[Counters, tuple, dict, Any], None]


def _count_list(name: str) -> CountFn:
    def count(c: Counters, args: tuple, kwargs: dict, result: Any) -> None:
        c[name] += len(result)
    return count


def _count_one(name: str) -> CountFn:
    def count(c: Counters, args: tuple, kwargs: dict, result: Any) -> None:
        c[name] += 1
    return count


def _count_suite(c: Counters, args: tuple, kwargs: dict, suite: Any) -> None:
    c["workloads.loops_built"] += sum(len(bench.loops) for bench in suite)


def _count_bounds(c: Counters, args: tuple, kwargs: dict, bounds: Any) -> None:
    c["analyze.lifted_loops"] += bounds.refined_bound > bounds.min_ii


def _count_bnb(c: Counters, args: tuple, kwargs: dict, result: Any) -> None:
    c["core.bnb_calls"] += 1
    c["core.placements"] += result.placements
    c["core.backtracks"] += result.backtracks


def _count_alloc(c: Counters, args: tuple, kwargs: dict, allocation: Any) -> None:
    c["regalloc.calls"] += 1
    c["regalloc.failed"] += not allocation.success


def _count_milp(c: Counters, args: tuple, kwargs: dict, result: Any) -> None:
    options = args[1] if len(args) > 1 else kwargs.get("options")
    c["ilp.solves"] += 1
    c["ilp.nodes"] += result.nodes
    c["ilp.simplex_iterations"] += result.simplex_iterations
    if result.limit is None:
        return
    # HiGHS reports one undifferentiated "budget" stop; a solve that used
    # (nearly) its whole time limit was stopped by the clock, not the nodes.
    wall = result.limit == "time" or (
        result.limit == "budget"
        and options is not None
        and result.seconds >= 0.9 * options.time_limit
    )
    c["ilp.wall_limit_hits" if wall else "ilp.node_limit_hits"] += 1


def _count_cp(c: Counters, args: tuple, kwargs: dict, answer: Any) -> None:
    c["portfolio.probes"] += 1
    c["portfolio.cp_nodes"] += answer.nodes
    if answer.answer == "unknown":
        c["portfolio.unknown"] += 1


def _count_fallback(c: Counters, args: tuple, kwargs: dict, result: Any) -> None:
    c["portfolio.fallbacks"] += result.fallback_used


@dataclass(frozen=True)
class Wrapped:
    """One wrapped entry point: its span name, the per-layer metric its self
    time adds to, the ``module:qualname`` it lives at, and its counts."""

    span: str
    metric: str
    target: str
    count: Optional[CountFn] = None


#: The layer boundaries the traced run records, one row per function.
WRAPPED: Tuple[Wrapped, ...] = (
    Wrapped("exec.cell", "exec.cell_self_ms", "repro.exec.runner:execute_cell"),
    Wrapped("exec.resolve", "exec.resolve_ms", "repro.exec.cells:resolve_loop"),
    Wrapped("workloads.livermore", "workloads.build_ms",
            "repro.workloads.livermore:livermore_kernels",
            _count_list("workloads.loops_built")),
    Wrapped("workloads.spec92", "workloads.build_ms",
            "repro.workloads.spec92:spec92_suite", _count_suite),
    Wrapped("workloads.recbound", "workloads.build_ms",
            "repro.workloads.recbound:recbound_kernels",
            _count_list("workloads.loops_built")),
    Wrapped("workloads.spec", "workloads.build_ms",
            "repro.workloads.mutate:LoopSpec.build", _count_one("workloads.loops_built")),
    Wrapped("analyze.bounds", "analyze.bounds_ms",
            "repro.analyze.bounds:compute_bounds", _count_bounds),
    Wrapped("analyze.schedulable_bound", "analyze.schedulable_bound_ms",
            "repro.analyze.bounds:schedulable_bound"),
    Wrapped("core.driver", "core.driver_self_ms", "repro.core.driver:pipeline_loop"),
    Wrapped("core.iisearch", "core.iisearch_ms", "repro.core.iisearch:search_ii"),
    Wrapped("core.bnb", "core.bnb_ms", "repro.core.bnb:modulo_schedule_bnb", _count_bnb),
    Wrapped("core.bank", "core.bank_ms", "repro.core.driver:_repair_bank_grouping"),
    Wrapped("core.spill.choose", "core.spill_ms", "repro.core.spill:choose_spill_candidates"),
    Wrapped("core.spill.insert", "core.spill_ms", "repro.core.spill:insert_spills",
            _count_one("core.spill_rounds")),
    Wrapped("regalloc.alloc", "regalloc.alloc_ms",
            "repro.regalloc.coloring:allocate_schedule", _count_alloc),
    Wrapped("most.driver", "most.driver_self_ms", "repro.most.scheduler:most_pipeline_loop"),
    Wrapped("most.formulate", "most.formulate_ms", "repro.most.formulation:build_formulation"),
    Wrapped("ilp.solve", "ilp.solve_ms", "repro.ilp.solver:solve_milp", _count_milp),
    Wrapped("portfolio.driver", "portfolio.driver_self_ms",
            "repro.portfolio.driver:portfolio_pipeline_loop", _count_fallback),
    Wrapped("portfolio.formulate", "portfolio.formulate_ms",
            "repro.portfolio.formulation:build_modulo_formulation"),
    Wrapped("portfolio.cp", "portfolio.cp_ms", "repro.portfolio.cp:solve_cp", _count_cp),
    Wrapped("portfolio.witness", "portfolio.witness_ms",
            "repro.portfolio.formulation:check_witness"),
    Wrapped("pipeline.emit", "pipeline.emit_ms", "repro.pipeline.emit:emit_pipelined_code"),
    Wrapped("pipeline.overhead", "pipeline.overhead_ms",
            "repro.pipeline.overhead:pipeline_overhead"),
    Wrapped("verify", "verify.ms", "repro.verify.api:verify_result"),
    Wrapped("sim.perf", "sim.perf_ms", "repro.sim.perf:simulate_pipelined"),
    Wrapped("sim.func.sequential", "sim.func_ms", "repro.sim.functional:run_sequential"),
    Wrapped("sim.func.pipelined", "sim.func_ms", "repro.sim.functional:run_pipelined"),
)

#: The ILP solve alone: untraced runs of the optimal side watch it to catch
#: a solve stopped by the wall clock.
ILP_WATCH = tuple(w for w in WRAPPED if w.span == "ilp.solve")


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``module:qualname`` -> (owner object, attribute name, current value)."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except AttributeError:
        raise AttributeError(
            f"wrapped function {target} does not exist; update WRAPPED in "
            f"{__name__} so its layer is not silently left unmeasured"
        ) from None


def _repro_modules() -> List[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Installs the wrappers, records spans and counts, restores on exit."""

    def __init__(self, entries: Sequence[Wrapped] = WRAPPED):
        self.entries = tuple(entries)
        self.cell = ""
        self.spans: List[List[Any]] = []  # [name, start, end, parent, cell]
        self.counters: Counters = defaultdict(float)
        self._stack: List[int] = []
        self._originals: Dict[int, Any] = {}  # id(wrapper) -> original
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- install / restore ----------------------------------------------
    def __enter__(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        # Resolve everything first: importing a target module may import
        # others that bind a target by name, and the alias scan below has
        # to see those bindings.
        resolved = [(entry, *resolve(entry.target)) for entry in self.entries]
        for entry, owner, attr, original in resolved:
            wrapper = self._wrap(entry, original)
            self._originals[id(wrapper)] = original
            self._patch(owner, attr, wrapper)
            for module in _repro_modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        return self

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        # A module first imported while tracing bound a wrapper by name.
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if callable(value) and id(value) in self._originals:
                    setattr(module, name, self._originals[id(value)])
        self._originals.clear()

    # -- recording -------------------------------------------------------
    def _wrap(self, entry: Wrapped, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append([entry.span, time.perf_counter(), None,
                          stack[-1] if stack else None, self.cell])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if entry.count is not None:
                entry.count(counters, args, kwargs, result)
            return result

        return wrapper

    # -- results ---------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def layer_metrics(self) -> Dict[str, float]:
        """The per-layer metrics of the batch layers (ms, counts, ratios)."""
        by_span = self.self_times()
        out: Dict[str, float] = defaultdict(float)
        for entry in self.entries:
            out[entry.metric] += by_span.get(entry.span, 0.0) * 1e3
        counters = self.counters
        for name in ("workloads.loops_built", "analyze.lifted_loops", "core.bnb_calls",
                     "core.placements", "core.backtracks", "core.spill_rounds",
                     "regalloc.calls", "ilp.solves", "ilp.nodes", "ilp.simplex_iterations",
                     "ilp.node_limit_hits", "ilp.wall_limit_hits", "portfolio.cp_nodes",
                     "portfolio.probes", "portfolio.fallbacks"):
            out[name] = counters.get(name, 0.0)
        out["regalloc.fail_share"] = _share(counters.get("regalloc.failed", 0.0),
                                            counters.get("regalloc.calls", 0.0))
        out["portfolio.unknown_share"] = _share(counters.get("portfolio.unknown", 0.0),
                                                counters.get("portfolio.probes", 0.0))
        cell_total = sum(end - start for name, start, end, _, _ in self.spans
                         if name == "exec.cell")
        out["trace.uncovered_share"] = _share(by_span.get("exec.cell", 0.0), cell_total)
        return dict(out)

    def write_chrome_trace(self, path: str) -> None:
        """All spans as Chrome trace-event JSON (complete "X" events, µs)."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": round((start - origin) * 1e6, 3), "dur": round((end - start) * 1e6, 3),
             "args": {"cell": cell,
                      "parent": None if parent is None else self.spans[parent][0]}}
            for name, start, end, parent, cell in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
