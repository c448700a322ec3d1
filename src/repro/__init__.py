"""repro — reproduction of "Software Pipelining Showdown: Optimal vs.
Heuristic Methods in a Production Compiler" (PLDI 1996).

Two software pipeliners with identical goals:

* :func:`pipeline_loop` — the SGI MIPSpro-style heuristic pipeliner
  (branch-and-bound modulo scheduling, four priority-list heuristics,
  two-phase binary II search, spilling, memory-bank pairing);
* :func:`most_pipeline_loop` — the McGill MOST-style optimal pipeliner
  (time-indexed integer linear programming with buffer minimisation,
  time limits, and a heuristic fallback).  It is the one optimal driver
  (:func:`repro.most.walk.optimal_pipeline_loop`) under MOST's default
  set, :class:`MostOptions`; the backend portfolio
  (:mod:`repro.portfolio`) is the same driver under another.

Plus everything both need: a loop IR with a builder DSL, an R8000 machine
model with its two-banked streaming cache, modulo renaming and
Chaitin-Briggs register allocation, code emission, functional and
cycle-level simulators, the Livermore/SPEC92-like workload corpora, and
the experiment harness reproducing every table and figure in the paper.

Quick start::

    from repro import LoopBuilder, pipeline_loop, most_pipeline_loop

    b = LoopBuilder("sdot", trip_count=1000)
    s = b.recurrence("s")
    x = b.load("x", offset=0, stride=4, width=4)
    y = b.load("y", offset=0, stride=4, width=4)
    s.close(b.fadd(b.fmul(x, y), s.use()))
    b.live_out_value(s)
    loop = b.build()

    heuristic = pipeline_loop(loop)
    optimal = most_pipeline_loop(loop)
    print(heuristic.ii, optimal.ii)
"""

import sys
from importlib import import_module
from typing import Any, Callable, Dict

#: Each re-exported name and the subpackage it comes from.  They load on
#: first access (module ``__getattr__``), so importing one subpackage —
#: an exec worker importing ``repro.exec.runner`` — pays for no other.
_EXPORTS = {
    "list_schedule": "baseline",
    **dict.fromkeys(
        ("BnBConfig", "PipelineResult", "PipelinerOptions", "Schedule",
         "max_ii", "min_ii", "pipeline_loop", "rec_mii", "res_mii"),
        "core",
    ),
    **dict.fromkeys(
        ("DDG", "Dependence", "DepKind", "Loop", "LoopBuilder", "MemRef", "OpClass",
         "Operation", "interleave_reduction", "promote_inter_iteration_loads", "unroll"),
        "ir",
    ),
    **dict.fromkeys(("MachineDescription", "r8000", "single_issue", "two_wide"), "machine"),
    **dict.fromkeys(("MostOptions", "most_pipeline_loop"), "most"),
    **dict.fromkeys(("emit_pipelined_code", "pipeline_overhead"), "pipeline"),
    **dict.fromkeys(("RauOptions", "rau_pipeline_loop"), "rau"),
    **dict.fromkeys(("allocate_schedule", "rename_kernel"), "regalloc"),
    **dict.fromkeys(
        ("DataLayout", "run_pipelined", "run_sequential", "simulate_pipelined"), "sim"
    ),
    **dict.fromkeys(
        ("livermore_kernel", "livermore_kernels", "random_loop", "spec92_benchmark",
         "spec92_suite"),
        "workloads",
    ),
}

__version__ = "1.0.0"

__all__ = sorted(_EXPORTS)


def _lazy_exports(package: str, exports: Dict[str, str]) -> Callable[[str], Any]:
    """The module ``__getattr__`` of ``package``: each name of ``exports``
    is imported from its submodule on first access and then kept in the
    package's namespace.  Every package init of ``repro`` resolves its
    re-exports this way, so importing a package loads none of its
    submodules, and code inside ``repro`` imports each name from its
    defining module (the cache key's import walk follows those imports,
    not this table)."""

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f".{module}", package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


__getattr__ = _lazy_exports(__name__, _EXPORTS)
