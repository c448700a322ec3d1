"""The worker side of the exec engine: one cell, under its deadline.

:func:`execute_cell` is the one function every cell runs through, inline
or on a pool worker (:mod:`repro.exec.engine` fans cells out; the serve
daemon runs its solves on the same pool).  The paper's cost story (an
optimal pipeliner ~250x slower than the heuristic) makes two disciplines
non-negotiable, both borrowed from the combinatorial-scheduling
literature's per-instance budgets:

* **hard per-cell deadlines, enforced in the worker** — a wedged ILP solve
  raises :class:`CellTimeout` from a ``SIGALRM`` handler and kills only its
  own cell; the worker then runs the heuristic pipeliner and records the
  cell as ``timeout=True, fallback=True``, mirroring how MOST itself backs
  off.  Cells always execute on a process's main thread (inline or in a
  pool worker), the one place the alarm is delivered; a deadline
  requested anywhere else is refused as an error cell, never run
  unguarded.  A solve stuck in C code, out of the alarm's reach, is the
  pool watchdog's to kill, ``GRACE`` seconds later;
* **fallback accounting** — timeout and fallback flags travel with every
  result, so aggregate numbers can always separate native solves from
  rescued ones.

This module imports only what a cell runs: its import closure is the code
half of every cell's cache key (:mod:`repro.exec.hashing`), and a fresh
worker pays for each module in it.  The cache, the hashing and the pool
belong to the parent side.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import signal
import threading
import time
import traceback
from typing import Dict, List, Optional

from ..core.bnb import forget_attempts
from ..core.driver import FALLBACK_OPTIONS
from ..machine.descriptions import MachineDescription, r8000
from ..obs.export import write_jsonl
from ..obs.recorder import TraceRecorder, recording
from ..schedulers import get_scheduler, without_harness_keys
from .cells import Cell, CellResult, resolve_loop


class CellTimeout(Exception):
    """Raised inside a worker when a cell exceeds its wall-clock deadline."""


#: The machine every cell of this process runs on.  The search precompute a
#: loop carries (MinII, per-II plans, distance tables) keys the machine by
#: identity, so one description lets the cells of a loop share it.  Its
#: memo of completed B&B attempts is dropped when a cell starts, so each
#: cell counts the search it needs whatever its process ran before.
MACHINE = r8000()


class _SignalDeadline:
    """Arms ``SIGALRM`` for the duration of a ``with`` block.

    Only the main thread of a process can receive the alarm.  A C-level
    solve is interrupted at the next bytecode boundary after the signal
    fires; one that never reaches a boundary is the process pool's
    watchdog's to kill (:mod:`repro.exec.pool`).
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self._armed = False

    def __enter__(self):
        def _on_alarm(signum, frame):
            raise CellTimeout()

        self._old = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(self.seconds, 1e-3))
        self._armed = True
        return self

    def __exit__(self, *exc):
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old)
        return False


def _no_alarm_reason() -> Optional[str]:
    """Why ``SIGALRM`` cannot reach this thread, or None when it can."""
    if not hasattr(signal, "SIGALRM"):
        return "this platform has no SIGALRM"
    if threading.current_thread() is not threading.main_thread():
        return f"thread {threading.current_thread().name!r} is not the main thread"
    return None


def _simulate(result_like, machine, trips_list, seed, sim_cycles):
    from ..pipeline.overhead import pipeline_overhead
    from ..sim.layout import DataLayout
    from ..sim.perf import simulate_pipelined

    # Simulate the loop actually scheduled — spill rounds may have added
    # operations beyond the original body.
    loop = result_like.schedule.loop
    overhead = pipeline_overhead(result_like.schedule, result_like.allocation, machine)
    for trips in trips_list:
        layout = DataLayout(loop, trip_count=trips or loop.trip_count, seed=seed)
        report = simulate_pipelined(
            result_like.schedule, layout, machine, trips=trips, overhead=overhead
        )
        sim_cycles["default" if trips is None else str(trips)] = float(report.cycles)
    return overhead


def _run_scheduler(
    cell: Cell, loop, machine: MachineDescription, rescue: bool = False
) -> CellResult:
    """Schedule, allocate and simulate one cell (no deadline handling here).

    ``rescue`` runs the heuristic backup in the cell's place, no harness
    hook included: its result is marked a fallback, like the optimal walk's.
    """
    from ..core.minii import min_ii as compute_min_ii

    name, options = (
        ("sgi", FALLBACK_OPTIONS) if rescue
        else (cell.scheduler, without_harness_keys(cell.options))
    )
    out = CellResult(
        loop=cell.loop,
        scheduler=cell.scheduler,
        options_json=cell.options_json,
        n_ops=loop.n_ops,
        # Computed on the pristine loop, before any seeded fault below —
        # this is the reference the fuzz oracle's II >= MinII layer uses.
        min_ii=compute_min_ii(loop, machine),
    )
    if cell.analyze:
        # Certified schedulability bound, also on the pristine loop: the
        # proofs must describe the loop the oracle reasons about, not a
        # corrupted copy the scheduler happens to see.  Only the per-II
        # infeasibility proofs are built; ``repro analyze`` assembles the
        # full certificate set.
        from ..analyze.bounds import schedulable_bound

        out.refined_bound = schedulable_bound(loop, machine, base=out.min_ii)
    trips_list: List[Optional[int]] = [None, *cell.trips] if cell.simulate else []

    # Seeded fault injection (fuzz-oracle calibration): corrupt what the
    # scheduler sees, never what the oracle measures against.
    inject = not rescue and cell.options.get("_test_inject")
    if inject:
        from ..fuzz.inject import corrupt_loop

        loop = corrupt_loop(loop, inject)

    if name == "baseline":
        from ..baseline.list_scheduler import list_schedule
        from ..sim.layout import DataLayout
        from ..sim.perf import simulate_sequential_body

        start = time.perf_counter()
        schedule = list_schedule(loop, machine)
        out.schedule_seconds = out.sched_wall_seconds = time.perf_counter() - start
        out.success = True
        out.producer = "baseline/list"
        for trips in trips_list:
            layout = DataLayout(loop, trip_count=trips or loop.trip_count, seed=cell.seed)
            report = simulate_sequential_body(schedule, layout, machine, trips=trips)
            out.sim_cycles["default" if trips is None else str(trips)] = float(report.cycles)
        return out

    scheduler = get_scheduler(name)
    sched_start = time.perf_counter()
    result = scheduler.run(loop, machine, scheduler.options_from_dict(options))
    out.sched_wall_seconds = time.perf_counter() - sched_start
    if rescue:
        result = dataclasses.replace(result, fallback_used=True)
    out.schedule_seconds = result.stats.seconds
    out.fallback = result.fallback_used
    out.optimal = result.optimal
    out.spill_rounds = result.spill_rounds
    out.order_name = result.order_name
    if result.probes:  # an optimal driver's probe trail
        out.backend_seconds = result.stats.backend_seconds()
        out.backend_probes = [probe.to_dict() for probe in result.probes]

    if inject:
        from ..fuzz.inject import corrupt_result

        corrupt_result(result, inject)

    out.success = result.success
    if result.success:
        out.ii = result.ii
        out.producer = result.schedule.producer
        out.n_stages = result.schedule.n_stages
        out.registers_used = result.allocation.registers_used
        if trips_list:
            overhead = _simulate(result, machine, trips_list, cell.seed, out.sim_cycles)
            out.overhead_cycles = overhead.total
        else:
            from ..pipeline.overhead import pipeline_overhead

            out.overhead_cycles = pipeline_overhead(
                result.schedule, result.allocation, machine
            ).total
    if cell.oracle:
        oracle_start = time.perf_counter()
        _apply_oracle(cell, result, machine, out)
        out.oracle_seconds = time.perf_counter() - oracle_start
    if cell.explain:
        from ..obs.explain import explain_result

        cause = {"fallback_cause": "the cell's deadline expired"} if rescue else {}
        try:
            out.explanation = explain_result(result, cell.scheduler, machine, **cause).to_dict()
        except Exception:
            # Attribution is best-effort decoration; a crash in it must not
            # lose the measured result.
            out.explanation = {"error": traceback.format_exc()}
    return out


def _apply_oracle(cell: Cell, result, machine, out: CellResult) -> None:
    """The fuzz oracle's dynamic layers; decorates ``out``, never raises.

    Records :func:`repro.verify.result_report` on the produced artifacts,
    checked against the *pristine* machine description, then runs the
    pipelined functional simulation against the sequential reference
    semantics.  Runs on whatever the scheduler produced — including results
    corrupted by a seeded ``_test_inject`` fault — which is exactly what
    makes those faults detectable.
    """
    scheduled = result.success and result.schedule is not None
    try:
        from ..verify import result_report

        report = result_report(result, machine)
        out.verify_errors = [f"{d.rule}: {d.message}" for d in report.errors]
        out.verify_warnings = [f"{d.rule}: {d.message}" for d in report.warnings]
    except Exception:
        out.verify_errors = [f"verifier crashed: {traceback.format_exc()}"]
    if not scheduled:
        return
    if result.allocation is None or not result.allocation.success:
        return
    try:
        from ..sim.functional import run_pipelined, run_sequential
        from ..sim.layout import DataLayout

        trips = min(64, max(12, 3 * result.schedule.n_stages))
        layout = DataLayout(result.loop, trip_count=trips, seed=cell.seed)
        seq = run_sequential(result.loop, layout, trips)
        pipe = run_pipelined(result.schedule, result.allocation, layout, trips)
        out.funcsim_ok = seq.matches(pipe)
        if not out.funcsim_ok:
            mem_diff = {
                addr
                for addr in set(seq.memory) | set(pipe.memory)
                if seq.memory.get(addr) != pipe.memory.get(addr)
            }
            out_diff = {
                name
                for name in set(seq.live_out) | set(pipe.live_out)
                if seq.live_out.get(name) != pipe.live_out.get(name)
            }
            out.funcsim_detail = (
                f"{len(mem_diff)} memory word(s) and {len(out_diff)} live-out "
                f"value(s) differ from the sequential reference at trips={trips}"
                + (f" (live_out: {sorted(out_diff)[:4]})" if out_diff else "")
            )
    except Exception:
        out.funcsim_ok = False
        out.funcsim_detail = f"functional sim crashed: {traceback.format_exc()}"


def _rescue(cell: Cell, loop, machine, elapsed: float) -> CellResult:
    """Heuristic rescue of a timed-out cell, with honest accounting.

    The rescue is the cell itself on the heuristic backup, so it passes
    through the same oracle, analyze and explain layers.
    """
    try:
        out = _run_scheduler(cell, loop, machine, rescue=True)
    except Exception:
        out = CellResult(loop=cell.loop, scheduler=cell.scheduler, n_ops=loop.n_ops)
        out.error = f"timeout after {elapsed:.1f}s; fallback failed:\n{traceback.format_exc()}"
        out.timeout = True
        return out
    out.timeout = True
    out.schedule_seconds += elapsed
    return out


def _trace_spool_path(cell: Cell) -> str:
    """Per-cell JSONL spool path inside ``cell.trace_dir``.

    The name encodes loop, scheduler and an options digest (so option
    sweeps over one loop do not collide), sanitised to filesystem-safe
    characters; the pid keeps concurrent workers apart.
    """
    import hashlib

    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in cell.loop)
    digest = hashlib.sha256(cell.options_json.encode()).hexdigest()[:8]
    return os.path.join(
        cell.trace_dir, f"{safe}__{cell.scheduler}__{digest}__{os.getpid()}.jsonl"
    )


def execute_cell(spec: Dict, in_worker: bool = True) -> Dict:
    """Run one cell (worker entry point).  Returns a payload dict.

    With ``cell.trace`` set, the whole cell runs under a live
    :class:`~repro.obs.TraceRecorder`: the scheduler's folded counters land
    in ``CellResult.obs``, and when ``cell.trace_dir`` names a directory
    the raw events are spooled there as one JSONL file per cell (merged
    across workers later by the bench layer).

    A cell with a ``timeout`` runs under ``SIGALRM``, so it must run on
    the main thread of a platform that has the signal; anywhere else it
    comes back as an error result naming the cause, without running.

    ``_test_*`` option keys are harness hooks: ``_test_sleep`` delays the
    scheduler (deterministic timeout tests), ``_test_wedge`` sleeps with
    ``SIGALRM`` blocked, like a solve stuck in C code (pool watchdog
    tests), ``_test_crash_once`` names a marker file and kills the worker
    process the first time it runs (worker-death retry tests; ignored
    inline).
    """
    cell = Cell.from_dict(spec)
    machine = MACHINE
    options = cell.options

    if cell.timeout is not None:
        reason = _no_alarm_reason()
        if reason is not None:
            out = CellResult(
                loop=cell.loop, scheduler=cell.scheduler, options_json=cell.options_json,
                error=f"cannot arm the {cell.timeout:g}s SIGALRM deadline: {reason}; "
                "cell not run",
            )
            return out.to_dict()

    crash_marker = options.get("_test_crash_once")
    if crash_marker and in_worker:
        if not os.path.exists(crash_marker):
            with open(crash_marker, "w") as handle:
                handle.write("crashed once\n")
            os._exit(3)

    start = time.perf_counter()
    try:
        loop = resolve_loop(cell.loop, machine)
    except Exception:
        out = CellResult(loop=cell.loop, scheduler=cell.scheduler)
        out.error = traceback.format_exc()
        out.wall_seconds = time.perf_counter() - start
        return out.to_dict()
    forget_attempts(loop)

    rec = TraceRecorder(process_name=f"repro worker {os.getpid()}") if cell.trace else None
    deadline = (
        _SignalDeadline(cell.timeout) if cell.timeout is not None else contextlib.nullcontext()
    )
    try:
        with deadline:
            if options.get("_test_sleep"):
                time.sleep(float(options["_test_sleep"]))
            if options.get("_test_wedge"):
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
                time.sleep(float(options["_test_wedge"]))
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            if rec is not None:
                with recording(rec), rec.span(
                    "cell", loop=cell.loop, scheduler=cell.scheduler
                ):
                    out = _run_scheduler(cell, loop, machine)
            else:
                out = _run_scheduler(cell, loop, machine)
    except CellTimeout:
        out = _rescue(cell, loop, machine, elapsed=time.perf_counter() - start)
    except Exception:
        out = CellResult(
            loop=cell.loop, scheduler=cell.scheduler,
            options_json=cell.options_json, n_ops=loop.n_ops,
        )
        out.error = traceback.format_exc()
    out.wall_seconds = time.perf_counter() - start
    if rec is not None:
        out.obs = dict(rec.counters)
        if cell.trace_dir:
            try:
                os.makedirs(cell.trace_dir, exist_ok=True)
                path = _trace_spool_path(cell)
                write_jsonl(rec, path)
                out.trace_file = path
            except OSError:
                # An unwritable trace directory must not fail the cell:
                # the folded counters still travel in the result.
                out.trace_file = None
    return out.to_dict()
