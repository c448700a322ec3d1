"""The parallel experiment engine: fan-out, deadlines, retries, caching.

Cells are independent, so the engine fans them out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  The paper's cost story
(an optimal pipeliner ~250x slower than the heuristic) makes two disciplines
non-negotiable, both borrowed from the combinatorial-scheduling literature's
per-instance budgets:

* **hard per-cell deadlines, enforced in the worker** — a wedged ILP solve
  raises :class:`CellTimeout` (via ``SIGALRM`` on the main thread, via a
  watchdog timer and the async-exception hook on executor threads — the
  serving daemon's path) and kills only its own cell; the worker then runs
  the heuristic pipeliner and records the cell as ``timeout=True,
  fallback=True``, mirroring how MOST itself backs off;
* **fallback accounting** — timeout and fallback flags travel with every
  result, so aggregate numbers can always separate native solves from
  rescued ones.

Transient worker deaths (OOM kill, interpreter crash) break the whole pool;
the engine rebuilds it and re-runs the unfinished cells, giving each cell
one retry before recording an error result.  With ``jobs=1`` everything
runs inline through the *same* worker function, so parallel and serial runs
are byte-identical apart from wall-clock fields.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence

from ..core.driver import FALLBACK_OPTIONS
from ..machine.descriptions import MachineDescription, r8000
from ..obs import TraceRecorder, recording, write_jsonl
from ..schedulers import get_scheduler, without_harness_keys
from .cache import ScheduleCache
from .cells import Cell, CellResult, resolve_loop
from .hashing import cell_key, fingerprint_loop, fingerprint_machine


class CellTimeout(Exception):
    """Raised inside a worker when a cell exceeds its wall-clock deadline."""


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
class _SignalDeadline:
    """Arms ``SIGALRM`` for the duration of a ``with`` block.

    Only the main thread of a process can receive the alarm (the CLI worker
    path, where the pool's worker processes execute cells on their main
    thread).  A C-level solve is interrupted at the next bytecode boundary
    after the signal fires.
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


class _TimerDeadline:
    """Watchdog-timer deadline for threads that cannot receive ``SIGALRM``.

    The serving daemon runs cells on executor threads, where per-process
    signals are undeliverable.  A daemon :class:`threading.Timer` instead
    raises :class:`CellTimeout` *in the executing thread* through the
    C-API async-exception hook — the same next-bytecode-boundary
    granularity the signal gives, so ``timeout``/``fallback`` statuses come
    out identical to the signal path.  On a clean exit any still-pending
    async exception is cleared; the one unavoidable race (the timer firing
    inside ``__exit__`` itself) surfaces as a late ``CellTimeout``, which
    callers already treat as a timed-out cell.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self._timer: Optional[threading.Timer] = None
        self._lock = threading.Lock()
        self._done = False
        self._fired = False

    def _set_async_exc(self, exc) -> None:
        import ctypes

        ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(self._tid), ctypes.py_object(exc) if exc else None
        )

    def _fire(self) -> None:
        with self._lock:
            if self._done:
                return
            self._fired = True
            self._set_async_exc(CellTimeout)

    def __enter__(self):
        self._tid = threading.get_ident()
        self._timer = threading.Timer(max(self.seconds, 1e-3), self._fire)
        self._timer.daemon = True
        self._timer.start()
        return self

    def __exit__(self, exc_type, *exc):
        with self._lock:
            self._done = True
            if self._timer is not None:
                self._timer.cancel()
            if self._fired and exc_type is not CellTimeout:
                # The exception was injected but has not been raised yet
                # (the block finished first): clear it before it detonates
                # in unrelated code.
                self._set_async_exc(None)
        return False


def _Deadline(seconds: Optional[float]):
    """The per-cell deadline, selected for the current thread.

    ``SIGALRM`` on the main thread (byte-identical to the historical CLI
    behaviour), the async-exception watchdog elsewhere, and a no-op when no
    deadline was requested or the platform has no usable mechanism.
    """
    if seconds is None:
        return contextlib.nullcontext()
    if hasattr(signal, "SIGALRM") and threading.current_thread() is threading.main_thread():
        return _SignalDeadline(seconds)
    return _TimerDeadline(seconds)


def _interruptible_sleep(seconds: float) -> None:
    """Sleep in short slices so either deadline can interrupt promptly.

    One long C-level ``time.sleep`` would pin the watchdog's injected
    async exception until the sleep returned on its own — the exception
    is only delivered at a bytecode boundary, and a blocked thread never
    reaches one.  Slicing gives both mechanisms a boundary every 50ms.
    """
    deadline = time.perf_counter() + seconds
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return
        time.sleep(min(remaining, 0.05))


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
    probes = getattr(result, "probes", [])  # the portfolio's probe trail
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

    ``_test_*`` option keys are harness hooks: ``_test_sleep`` delays the
    scheduler (deterministic timeout tests), ``_test_crash_once`` names a
    marker file and kills the worker process the first time it runs
    (worker-death retry tests; ignored inline).
    """
    cell = Cell.from_dict(spec)
    machine = r8000()
    options = cell.options

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
    try:
        with _Deadline(cell.timeout):
            if options.get("_test_sleep"):
                _interruptible_sleep(float(options["_test_sleep"]))
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


class ExecEngine:
    """Runs cells in parallel with caching, deadlines and one retry.

    ``jobs=1`` executes inline (same worker code, no subprocess); ``jobs>1``
    uses a process pool.  ``default_timeout`` applies to cells that do not
    carry their own.  ``progress`` is called after every finished cell.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ScheduleCache] = None,
        default_timeout: Optional[float] = None,
        retries: int = 1,
        progress: Optional[ProgressFn] = None,
        machine: Optional[MachineDescription] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.default_timeout = default_timeout
        self.retries = retries
        self.progress = progress
        self.machine = machine if machine is not None else r8000()
        self._machine_fp = fingerprint_machine(self.machine)
        self._loop_fps: Dict[str, str] = {}

    # -- keys ----------------------------------------------------------
    def _effective(self, cell: Cell) -> Cell:
        if cell.timeout is None and self.default_timeout is not None:
            cell = Cell.from_dict({**cell.to_dict(), "timeout": self.default_timeout})
        return cell

    def key_of(self, cell: Cell) -> str:
        """Content address of a cell (resolves the loop to fingerprint it)."""
        if cell.loop not in self._loop_fps:
            self._loop_fps[cell.loop] = fingerprint_loop(
                resolve_loop(cell.loop, self.machine)
            )
        return cell_key(
            self._loop_fps[cell.loop],
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

    def forget_loop_fingerprints(self) -> None:
        """Drop the per-engine loop-fingerprint memo.

        Long fuzzing sessions stream thousands of one-shot ``fuzz:`` keys
        through one engine; dropping the memo between batches keeps its
        footprint bounded (corpus keys are simply re-fingerprinted).
        """
        self._loop_fps.clear()

    # -- running -------------------------------------------------------
    def run(self, cells: Sequence[Cell]) -> Dict[Cell, CellResult]:
        """Execute every distinct cell; returns results keyed by cell.

        Cached results are returned without scheduling anything; the rest
        fan out over the pool.  The result map is keyed by the cells as
        given (before the engine's default timeout is applied).
        """
        ordered: List[Cell] = list(dict.fromkeys(cells))
        results: Dict[Cell, CellResult] = {}
        pending: List[Cell] = []
        keys: Dict[Cell, str] = {}
        total = len(ordered)
        done = 0

        for cell in ordered:
            effective = self._effective(cell)
            try:
                key = self.key_of(effective)
            except Exception:
                # The loop key does not resolve: an error result, not a crash
                # (and nothing worth caching).
                result = CellResult(
                    loop=cell.loop,
                    scheduler=cell.scheduler,
                    options_json=cell.options_json,
                    error=traceback.format_exc(),
                )
                results[cell] = result
                done += 1
                if self.progress:
                    self.progress(done, total, cell, result)
                continue
            keys[cell] = key
            payload = self.cache.get(key) if self.cache is not None else None
            if payload is not None:
                result = CellResult.from_dict(payload)
                result.cache_hit = True
                result.cache_key = key
                results[cell] = result
                done += 1
                if self.progress:
                    self.progress(done, total, cell, result)
            else:
                pending.append(cell)

        if pending:
            if self.jobs == 1:
                fresh = self._run_inline(pending, keys, done, total, results)
            else:
                fresh = self._run_pool(pending, keys, done, total, results)
            results.update(fresh)
        return results

    def _finish(self, cell: Cell, result: CellResult, key: str) -> CellResult:
        result.cache_key = key
        if self.cache is not None and result.error is None:
            payload = result.to_dict()
            payload["cache_hit"] = False
            self.cache.put(key, payload)
        return result

    def _run_inline(self, pending, keys, done, total, results):
        fresh: Dict[Cell, CellResult] = {}
        for cell in pending:
            spec = self._effective(cell).to_dict()
            result = CellResult.from_dict(execute_cell(spec, in_worker=False))
            fresh[cell] = self._finish(cell, result, keys[cell])
            done += 1
            if self.progress:
                self.progress(done, total, cell, fresh[cell])
        return fresh

    def _run_pool(self, pending, keys, done, total, results):
        fresh: Dict[Cell, CellResult] = {}
        attempts: Dict[Cell, int] = {cell: 0 for cell in pending}
        remaining = list(pending)
        while remaining:
            executor = ProcessPoolExecutor(max_workers=self.jobs)
            futures = {}
            for cell in remaining:
                attempts[cell] += 1
                futures[executor.submit(execute_cell, self._effective(cell).to_dict())] = cell
            crashed: List[Cell] = []
            try:
                not_done = set(futures)
                while not_done:
                    finished, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                    for future in finished:
                        cell = futures[future]
                        try:
                            result = CellResult.from_dict(future.result())
                        except BrokenProcessPool:
                            raise
                        except Exception as exc:  # pickling issues etc.
                            result = CellResult(
                                loop=cell.loop,
                                scheduler=cell.scheduler,
                                options_json=cell.options_json,
                                error=f"worker error: {exc!r}",
                            )
                        result.attempts = attempts[cell]
                        fresh[cell] = self._finish(cell, result, keys[cell])
                        done += 1
                        if self.progress:
                            self.progress(done, total, cell, fresh[cell])
            except BrokenProcessPool:
                # A worker died mid-flight.  Everything without a result is
                # suspect; re-run cells that still have retries left.
                for future, cell in futures.items():
                    if cell in fresh:
                        continue
                    if attempts[cell] <= self.retries:
                        crashed.append(cell)
                    else:
                        result = CellResult(
                            loop=cell.loop,
                            scheduler=cell.scheduler,
                            options_json=cell.options_json,
                            error="worker process died repeatedly",
                            attempts=attempts[cell],
                        )
                        fresh[cell] = self._finish(cell, result, keys[cell])
                        done += 1
                        if self.progress:
                            self.progress(done, total, cell, fresh[cell])
            finally:
                executor.shutdown(wait=False, cancel_futures=True)
            remaining = crashed
        return fresh
