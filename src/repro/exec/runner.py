"""The parallel experiment engine: fan-out, deadlines, retries, caching.

Cells are independent, so the engine fans them out over the one process
pool, :class:`~repro.exec.pool.WorkerPool` (the serve daemon runs its
solves on the same pool).  The paper's cost story (an optimal pipeliner
~250x slower than the heuristic) makes two disciplines non-negotiable,
both borrowed from the combinatorial-scheduling literature's per-instance
budgets:

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

A transient worker death (OOM kill, interpreter crash) takes down one
worker; the pool respawns it and re-runs only the cell that was on it,
``retries`` times at most, before recording an error result.  With
``jobs=1`` everything runs inline through the *same* worker function, so
parallel and serial runs are byte-identical apart from wall-clock fields.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..core.driver import FALLBACK_OPTIONS
from ..machine.descriptions import MachineDescription, r8000
from ..obs import TraceRecorder, recording, write_jsonl
from ..schedulers import get_scheduler, without_harness_keys
from .cache import ScheduleCache, cache_result, cached_hit
from .cells import Cell, CellResult, resolve_loop
from .hashing import cell_key, fingerprint_loop, fingerprint_machine


class CellTimeout(Exception):
    """Raised inside a worker when a cell exceeds its wall-clock deadline."""


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
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


def _run_scheduler(cell: Cell, loop, machine: MachineDescription) -> CellResult:
    """Schedule, allocate and simulate one cell (no deadline handling here)."""
    from ..core.minii import min_ii as compute_min_ii

    options = without_harness_keys(cell.options)
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
        # Certified refined lower bound, also on the pristine loop: the
        # certificates must describe the loop the oracle reasons about,
        # not a corrupted copy the scheduler happens to see.
        from ..analyze.bounds import compute_bounds

        bounds = compute_bounds(loop, machine)
        out.refined_bound = bounds.refined_bound
        out.bounds = bounds.to_dict()
    trips_list: List[Optional[int]] = [None, *cell.trips] if cell.simulate else []

    # Seeded fault injection (fuzz-oracle calibration): corrupt what the
    # scheduler sees, never what the oracle measures against.
    inject = cell.options.get("_test_inject")
    if inject:
        from ..fuzz.inject import corrupt_loop

        loop = corrupt_loop(loop, inject)

    if cell.scheduler == "baseline":
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

    scheduler = get_scheduler(cell.scheduler)
    sched_start = time.perf_counter()
    result = scheduler.run(
        loop, machine, scheduler.options_from_dict(options), verify=cell.verify
    )
    out.sched_wall_seconds = time.perf_counter() - sched_start
    out.schedule_seconds = result.stats.seconds
    out.fallback = result.fallback_used
    out.optimal = result.optimal
    out.spill_rounds = result.spill_rounds
    out.order_name = getattr(result, "order_name", "")  # SGI's winning order
    probes = getattr(result, "probes", [])  # an optimal driver's probe trail
    if probes:
        out.backend_seconds = result.stats.backend_seconds()
        out.backend_probes = [probe.to_dict() for probe in probes]

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
        _apply_oracle(cell, result, machine, out)
    if cell.explain:
        from ..obs import get_recorder
        from ..obs.explain import explain_result

        rec = get_recorder()
        try:
            out.explanation = explain_result(
                result,
                cell.scheduler,
                machine,
                options,
                events=getattr(rec, "events", None),
                obs=getattr(rec, "counters", None),
            ).to_dict()
        except Exception:
            # Attribution is best-effort decoration; a replay crash must
            # not lose the measured result.
            out.explanation = {"error": traceback.format_exc()}
    return out


def _apply_oracle(cell: Cell, result, machine, out: CellResult) -> None:
    """The fuzz oracle's dynamic layers; decorates ``out``, never raises.

    Independently re-verifies the produced artifacts (schedule, allocation,
    emitted listing) against the *pristine* machine description, then runs
    the pipelined functional simulation against the sequential reference
    semantics.  Runs on whatever the scheduler produced — including results
    corrupted by a seeded ``_test_inject`` fault — which is exactly what
    makes those faults detectable.
    """
    if not getattr(result, "success", False) or result.schedule is None:
        return
    try:
        from ..pipeline.emit import emit_pipelined_code
        from ..verify import verify_result

        emitted = None
        if result.allocation is not None and result.allocation.success:
            emitted = emit_pipelined_code(result.schedule, result.allocation)
        report = verify_result(result, emitted=emitted, machine=machine)
        out.verify_errors = [f"{d.rule}: {d.message}" for d in report.errors]
    except Exception:
        out.verify_errors = [f"verifier crashed: {traceback.format_exc()}"]
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


def _fallback_result(cell: Cell, loop, machine, elapsed: float) -> CellResult:
    """Heuristic rescue of a timed-out cell, with honest accounting."""
    fallback_cell = Cell.make(
        cell.loop, "sgi", FALLBACK_OPTIONS,
        trips=cell.trips, seed=cell.seed, simulate=cell.simulate, verify=False,
    )
    try:
        out = _run_scheduler(fallback_cell, loop, machine)
    except Exception:
        out = CellResult(loop=cell.loop, scheduler=cell.scheduler, n_ops=loop.n_ops)
        out.error = f"timeout after {elapsed:.1f}s; fallback failed:\n{traceback.format_exc()}"
        out.timeout = True
        return out
    out.scheduler = cell.scheduler
    out.options_json = cell.options_json
    out.timeout = True
    out.fallback = True
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
    machine = r8000()
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
        out = _fallback_result(cell, loop, machine, elapsed=time.perf_counter() - start)
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


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
ProgressFn = Callable[[int, int, Cell, CellResult], None]

#: Loop fingerprints :meth:`ExecEngine.key_of` keeps before starting over.
_LOOP_FP_LIMIT = 4096


class ExecEngine:
    """Runs cells in parallel with caching, deadlines and one retry.

    ``jobs=1`` executes inline (same worker code, no subprocess); ``jobs>1``
    runs the cells on a :class:`~repro.exec.pool.WorkerPool` of that many
    processes.  ``default_timeout`` applies to cells that do not carry
    their own.  ``progress`` is called after every finished cell.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ScheduleCache] = None,
        default_timeout: Optional[float] = None,
        retries: int = 1,
        progress: Optional[ProgressFn] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.default_timeout = default_timeout
        self.retries = retries
        self.progress = progress
        self._machine_fp = fingerprint_machine(r8000())
        self._loop_fps: Dict[str, str] = {}

    # -- keys ----------------------------------------------------------
    def _effective(self, cell: Cell) -> Cell:
        if cell.timeout is None and self.default_timeout is not None:
            cell = Cell.from_dict({**cell.to_dict(), "timeout": self.default_timeout})
        return cell

    def key_of(self, cell: Cell) -> str:
        """Content address of a cell (resolves the loop to fingerprint it).

        Loop fingerprints are memoised per engine; fuzz batches and serve
        requests stream one-shot ``fuzz:`` keys through one long-lived
        engine, so the memo starts over past :data:`_LOOP_FP_LIMIT`
        entries (corpus keys simply re-fingerprint).
        """
        loop_fp = self._loop_fps.get(cell.loop)
        if loop_fp is None:
            if len(self._loop_fps) >= _LOOP_FP_LIMIT:
                self._loop_fps.clear()
            loop_fp = fingerprint_loop(resolve_loop(cell.loop))
            self._loop_fps[cell.loop] = loop_fp
        return cell_key(
            loop_fp,
            self._machine_fp,
            cell.scheduler,
            cell.options_json,
            cell.trips,
            cell.seed,
            cell.simulate,
            cell.timeout,
            cell.trace,
            cell.explain,
            cell.oracle,
            cell.analyze,
        )

    # -- running -------------------------------------------------------
    def run(self, cells: Sequence[Cell]) -> Dict[Cell, CellResult]:
        """Execute every distinct cell; returns results keyed by cell.

        Cached results are returned without scheduling anything; the rest
        run inline or on the pool.  The result map is keyed by the cells as
        given (before the engine's default timeout is applied).
        """
        ordered: List[Cell] = list(dict.fromkeys(cells))
        results: Dict[Cell, CellResult] = {}
        pending: Dict[Cell, str] = {}

        def record(cell: Cell, result: CellResult) -> None:
            results[cell] = result
            if self.progress:
                self.progress(len(results), len(ordered), cell, result)

        def finish(cell: Cell, payload: Dict[str, Any]) -> None:
            record(cell, CellResult.from_dict(cache_result(self.cache, pending[cell], payload)))

        for cell in ordered:
            try:
                key = self.key_of(self._effective(cell))
            except Exception:
                # The loop key does not resolve: an error result, not a crash
                # (and nothing worth caching).
                record(cell, CellResult(
                    loop=cell.loop,
                    scheduler=cell.scheduler,
                    options_json=cell.options_json,
                    error=traceback.format_exc(),
                ))
                continue
            payload = self.cache.get(key) if self.cache is not None else None
            if payload is not None:
                record(cell, CellResult.from_dict(cached_hit(payload, key)))
            else:
                pending[cell] = key

        if self.jobs == 1:
            for cell in pending:
                finish(cell, execute_cell(self._effective(cell).to_dict(), in_worker=False))
        elif pending:
            asyncio.run(self._run_pool(list(pending), finish))
        return results

    async def _run_pool(
        self, cells: Sequence[Cell], finish: Callable[[Cell, Dict[str, Any]], None]
    ) -> None:
        from .pool import WorkerPool, error_result  # pool.py imports execute_cell

        pool = WorkerPool(self.jobs)

        async def one(cell: Cell):
            spec = self._effective(cell).to_dict()
            try:
                return cell, await pool.run(spec, self.retries)
            except Exception as exc:  # pickling issues etc.
                return cell, error_result(spec, f"worker error: {exc!r}")

        # Tasks start in creation order, so cells reach the workers in the
        # order given (``as_completed`` alone would start them in set order).
        tasks = [asyncio.ensure_future(one(cell)) for cell in cells]
        try:
            for finished in asyncio.as_completed(tasks):
                finish(*await finished)
        finally:
            pool.shutdown()
