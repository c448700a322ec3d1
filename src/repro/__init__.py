"""repro — reproduction of "Software Pipelining Showdown: Optimal vs.
Heuristic Methods in a Production Compiler" (PLDI 1996).

Two software pipeliners with identical goals:

* :func:`pipeline_loop` — the SGI MIPSpro-style heuristic pipeliner
  (branch-and-bound modulo scheduling, four priority-list heuristics,
  two-phase binary II search, spilling, memory-bank pairing);
* :func:`most_pipeline_loop` — the McGill MOST-style optimal pipeliner
  (time-indexed integer linear programming with buffer minimisation,
  time limits, and a heuristic fallback).

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

from .baseline import list_schedule
from .core import (
    BnBConfig,
    PipelineResult,
    PipelinerOptions,
    Schedule,
    max_ii,
    min_ii,
    pipeline_loop,
    rec_mii,
    res_mii,
)
from .ir import (
    DDG,
    Dependence,
    DepKind,
    Loop,
    LoopBuilder,
    MemRef,
    OpClass,
    Operation,
    interleave_reduction,
    promote_inter_iteration_loads,
    unroll,
)
from .machine import MachineDescription, r8000, single_issue, two_wide
from .most import MostOptions, OptimalResult, most_pipeline_loop
from .pipeline import emit_pipelined_code, pipeline_overhead
from .rau import RauOptions, rau_pipeline_loop
from .regalloc import allocate_schedule, rename_kernel
from .sim import DataLayout, run_pipelined, run_sequential, simulate_pipelined
from .workloads import livermore_kernel, livermore_kernels, random_loop, spec92_benchmark, spec92_suite

__version__ = "1.0.0"

__all__ = [
    "BnBConfig",
    "DDG",
    "DataLayout",
    "Dependence",
    "DepKind",
    "Loop",
    "LoopBuilder",
    "MachineDescription",
    "MemRef",
    "MostOptions",
    "OpClass",
    "Operation",
    "OptimalResult",
    "PipelineResult",
    "PipelinerOptions",
    "Schedule",
    "allocate_schedule",
    "emit_pipelined_code",
    "list_schedule",
    "livermore_kernel",
    "livermore_kernels",
    "max_ii",
    "min_ii",
    "most_pipeline_loop",
    "pipeline_loop",
    "pipeline_overhead",
    "r8000",
    "random_loop",
    "rau_pipeline_loop",
    "RauOptions",
    "rec_mii",
    "rename_kernel",
    "res_mii",
    "run_pipelined",
    "run_sequential",
    "simulate_pipelined",
    "single_issue",
    "interleave_reduction",
    "promote_inter_iteration_loads",
    "unroll",
    "spec92_benchmark",
    "spec92_suite",
    "two_wide",
]
