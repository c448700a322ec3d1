"""The scheduling service core: admission, cache, single-flight.

:class:`SchedulerService` is the daemon with the sockets peeled off — the
front end (:mod:`repro.serve.daemon`), the load generator's in-process
mode and the tests all drive this one object.  A request travels:

1. **admission** — ``submit`` rejects while draining (``shutting-down``),
   builds the request's cell and computes its content-addressed key;
2. **cache / single-flight** — in the same pass, with no timer in
   between: a memory or disk hit (promoted) is answered at once, a
   request for a key already being solved attaches to that solve, and a
   new miss starts one — concurrent identical requests solve exactly
   once, every waiter answered from the solve itself.  A new miss is shed (``overloaded`` with a
   ``retry_after`` hint: the 429 of the NDJSON world) while
   ``queue_limit`` distinct solves are outstanding; hits and attachments
   never are;
3. **execution** — cells fan out to the persistent worker pool
   (:mod:`repro.exec.pool`, the one process pool the batch engine runs
   on too), per-request budgets enforced in-worker with the pool
   watchdog as backstop; results stream back to every waiter as they
   finish, write-through cached on the way under the batch engine's
   caching rule (:func:`repro.exec.cache.cache_result`).

Budgets follow the anytime-solver contract from the combinatorial
scheduling literature: every request carries (or inherits) a wall-clock
budget, and blowing it degrades to the heuristic fallback tier inside the
worker rather than an error — quality tiers, not failures.
"""

from __future__ import annotations

import asyncio
import pathlib
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..exec.cache import DEFAULT_CACHE_DIR, ScheduleCache, cache_result, cached_hit
from ..exec.cells import Cell, resolve_loop
from ..exec.hashing import cell_key
from ..exec.pool import WorkerPool
from ..obs import export
from ..obs.recorder import get_recorder
from ..obs.service import ServiceMetrics, SlowRequestLog
from ..schedulers import REGISTRY
from .cachetier import LRUCache, TieredCache
from .protocol import ProtocolError, ScheduleRequest, error_response, ok_response

if TYPE_CHECKING:
    from ..exec.bench import BenchOptions


@dataclass
class ServeConfig:
    """Everything the service (and daemon around it) is configured by."""

    jobs: int = 2                      # persistent worker processes (>= 1)
    queue_limit: int = 64              # max outstanding distinct solves
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR  # None = memory-only
    lru_entries: int = 1024
    lru_mb: float = 64.0               # in-process LRU byte budget, MiB
    default_budget: float = 60.0       # per-request deadline when unset
    max_budget: float = 300.0          # server-side clamp on request budgets
    drain_timeout: float = 60.0        # max seconds to wait for in-flight work
    # Telemetry: NDJSON slow-request log (None = off), its latency
    # threshold, and the period of the queue-depth/hit-rate gauge sampler
    # (0 disables the sampler task).
    slow_log_path: Optional[str] = None
    slow_ms: float = 1000.0
    gauge_interval: float = 5.0

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1 worker process, got {self.jobs}")

    def build_cache(self) -> TieredCache:
        disk = ScheduleCache(self.cache_dir) if self.cache_dir is not None else None
        return TieredCache(
            lru=LRUCache(max_entries=self.lru_entries, max_bytes=int(self.lru_mb * (1 << 20))),
            disk=disk,
        )


#: The committed fuzz corpus, whose specs ride in the load harness's mix.
DEFAULT_FUZZ_CORPUS_DIR = pathlib.Path("tests") / "fuzz_corpus"


@dataclass
class LoadgenOptions:
    """Knobs of one load-generation session (:mod:`repro.serve.loadgen`),
    defined here so ``repro serve`` reads its selftest's defaults without
    loading the harness."""

    requests: int = 240
    concurrency: int = 16
    schedulers: Tuple[str, ...] = tuple(REGISTRY)
    corpora: Tuple[str, ...] = ("livermore", "recbound")
    fuzz_corpus_dir: Optional[str] = str(DEFAULT_FUZZ_CORPUS_DIR)
    seed: int = 0
    budget: Optional[float] = 60.0
    simulate: bool = True
    output_dir: pathlib.Path = field(default_factory=lambda: export.DEFAULT_OUTPUT_DIR)
    # When set, the finished BENCH_service payload is also filed in the
    # run-history store (repro.obs.history) for the trend layer.  None
    # (the default) keeps tests and ad-hoc runs out of shared history.
    history_dir: Optional[str] = None

    def bench_options(self) -> "BenchOptions":
        # The quick-grid configuration: identical scheduler options to
        # ``repro bench --quick`` so cells align across BENCH files.
        from ..exec.bench import BenchOptions

        return BenchOptions(quick=True, schedulers=self.schedulers)


@dataclass
class _Pending:
    """One admitted request waiting for its result.

    The three phase timestamps bracket the request's life for span
    emission: admitted once its cell is built (``admitted_at``), keyed
    once its cell key is computed and looked up in the cache and the
    in-flight table (``keyed_at`` — the ``coalesce`` phase is that keying
    plus lookup), resolved when a result — cache hit or solve — landed on
    the future (``resolved_at``).
    """

    request: ScheduleRequest
    cell: Cell
    future: "asyncio.Future[Dict[str, Any]]"
    admitted_at: float = field(default_factory=time.perf_counter)
    keyed_at: float = 0.0
    resolved_at: float = 0.0

    def resolve(self, response: Dict[str, Any]) -> None:
        if not self.future.done():
            self.resolved_at = time.perf_counter()
            self.future.set_result(response)


class _Flight:
    """One in-flight solve and the pendings waiting on it."""

    def __init__(self, key: str, cell: Cell):
        self.key = key
        self.cell = cell
        self.waiters: List[_Pending] = []


class SchedulerService:
    """The admission → cache/single-flight → worker-pool pipeline."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.metrics = ServiceMetrics()
        self.cache = self.config.build_cache()
        self.pool = WorkerPool(self.config.jobs)
        self._inflight: Dict[str, _Flight] = {}
        self._tasks: "set[asyncio.Task]" = set()
        self._gauge_task: Optional[asyncio.Task] = None
        self._draining = False
        self._started = False
        self.slow_log: Optional[SlowRequestLog] = (
            SlowRequestLog(self.config.slow_log_path, self.config.slow_ms)
            if self.config.slow_log_path
            else None
        )

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self.config.gauge_interval > 0:
            self._gauge_task = asyncio.create_task(self._gauge_loop())

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, finish in-flight work; True if fully drained."""
        self._draining = True
        deadline = time.perf_counter() + (
            timeout if timeout is not None else self.config.drain_timeout
        )

        def busy() -> bool:
            return bool(self._inflight or self._tasks)

        while busy() and time.perf_counter() < deadline:
            await asyncio.sleep(0.02)
        return not busy()

    async def stop(self, drain: bool = True) -> None:
        if drain:
            await self.drain()
        self._draining = True
        if self._gauge_task is not None:
            self._gauge_task.cancel()
            try:
                await self._gauge_task
            except asyncio.CancelledError:
                pass
            self._gauge_task = None
        for task in list(self._tasks):
            task.cancel()
        self.pool.shutdown()

    # -- admission -----------------------------------------------------
    def _clamped_budget(self, request: ScheduleRequest) -> float:
        budget = request.budget if request.budget is not None else self.config.default_budget
        return min(budget, self.config.max_budget)

    async def submit(self, request: ScheduleRequest) -> Dict[str, Any]:
        """One schedule request through the whole pipeline; returns the
        wire-shaped response payload (never raises for per-request
        problems — they become error responses)."""
        self.metrics.requests += 1
        started = time.perf_counter()
        if self._draining:
            self.metrics.rejected += 1
            return error_response(
                request.id, "shutting-down", "service is draining; retry elsewhere"
            )
        try:
            cell = request.to_cell(self._clamped_budget(request))
        except (ProtocolError, ValueError) as exc:
            self.metrics.rejected += 1
            return error_response(request.id, "bad-request", str(exc))
        pending = _Pending(
            request=request, cell=cell,
            future=asyncio.get_running_loop().create_future(),
        )
        refusal = self._admit(pending)
        if refusal is not None:
            return refusal
        response = await pending.future
        finished = time.perf_counter()
        latency_ms = (finished - started) * 1e3
        response["latency_ms"] = round(latency_ms, 3)
        result = response.get("result") or {}
        self.metrics.record_response(
            request.scheduler,
            latency_ms,
            schedule_seconds=float(result.get("schedule_seconds") or 0.0),
            error=bool(not response.get("ok") or result.get("error")),
        )
        self._emit_request_telemetry(pending, response, started, finished, latency_ms)
        return response

    def _admit(self, pending: _Pending) -> Optional[Dict[str, Any]]:
        """Key the request's cell, then answer it from the cache, attach it
        to an identical in-flight solve, or start a solve for it.

        Returns a refusal response — a new miss while ``queue_limit``
        solves are outstanding, or one whose loop key does not resolve —
        or ``None`` once the request's future is resolved or has a solve
        behind it.  Only a new miss builds its loop: keying builds none,
        and a hit or an attachment had its loop built by the solve behind
        it.
        """
        request_id = pending.request.id
        key = cell_key(pending.cell)
        flight = self._inflight.get(key)
        hit = self.cache.get(key) if flight is None else None
        pending.keyed_at = time.perf_counter()
        if flight is not None:
            self.metrics.inflight_dedup += 1
            flight.waiters.append(pending)
        elif hit is not None:
            tier, payload = hit
            if tier == "memory":
                self.metrics.memory_hits += 1
            else:
                self.metrics.disk_hits += 1
            pending.resolve(ok_response(request_id, cached_hit(payload, key), cached=tier))
        elif len(self._inflight) >= self.config.queue_limit:
            self.metrics.shed += 1
            # Outstanding solves are budget-bounded and clear at pool rate;
            # hint a backoff that grows with them, floored and capped.
            retry = max(0.05, min(1.0, len(self._inflight) * 0.01))
            return error_response(
                request_id, "overloaded",
                f"{self.config.queue_limit} solves outstanding; retry later",
                retry_after=retry,
            )
        else:
            try:
                resolve_loop(pending.cell.loop)
            except Exception as exc:
                self.metrics.rejected += 1
                return error_response(
                    request_id, "bad-request", f"loop key does not resolve: {exc}"
                )
            self.metrics.misses += 1
            flight = _Flight(key, pending.cell)
            flight.waiters.append(pending)
            self._inflight[key] = flight
            task = asyncio.create_task(self._solve(flight))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        self.metrics.observe_queue(len(self._inflight))
        return None

    def _emit_request_telemetry(
        self,
        pending: _Pending,
        response: Dict[str, Any],
        started: float,
        finished: float,
        latency_ms: float,
    ) -> None:
        """Per-request spans (admission→coalesce→solve→respond) + slow log."""
        phases = (
            ("admission", started, pending.admitted_at),
            ("coalesce", pending.admitted_at, pending.keyed_at),
            ("solve", pending.keyed_at, pending.resolved_at),
            ("respond", pending.resolved_at, finished),
        )
        recorder = get_recorder()
        if recorder.enabled:
            # Back-to-back B/E pairs emitted synchronously (no awaits in
            # between), so strict nesting survives a multi-source trace
            # merge; the measured phase durations ride in args since the
            # emit-time timestamps are all "now".
            for phase, begin, end in phases:
                with recorder.span(
                    f"serve.{phase}",
                    request_id=pending.request.id,
                    scheduler=pending.request.scheduler,
                    ms=round(max(0.0, end - begin) * 1e3, 3),
                ):
                    pass
        if self.slow_log is not None:
            self.slow_log.observe({
                "request_id": pending.request.id,
                "loop": pending.cell.loop,
                "scheduler": pending.request.scheduler,
                "latency_ms": round(latency_ms, 3),
                "cached": response.get("cached", False),
                "deduped": bool(response.get("deduped")),
                "ok": bool(response.get("ok")),
                "phases_ms": {
                    name: round(max(0.0, end - begin) * 1e3, 3)
                    for name, begin, end in phases
                },
            })

    async def _gauge_loop(self) -> None:
        """Sample queue depth and hit rate on a timer.

        Keeps the saturation gauges fresh between requests (an idle
        daemon's metrics endpoint still reports current depth) and, when
        a trace recorder is live, drops them into the timeline as
        instant events so the merged Chrome trace shows load over time.
        """
        while True:
            await asyncio.sleep(self.config.gauge_interval)
            depth = len(self._inflight)
            self.metrics.observe_queue(depth)
            recorder = get_recorder()
            if recorder.enabled:
                recorder.event("serve.queue_depth", value=depth)
                hit_rate = self.metrics.cache_hit_rate
                recorder.event(
                    "serve.cache_hit_rate",
                    value=None if hit_rate is None else round(hit_rate, 4),
                )

    async def _solve(self, flight: _Flight) -> None:
        try:
            payload = cache_result(
                self.cache, flight.key, await self.pool.run(flight.cell.to_dict())
            )
            self.metrics.worker_respawns = self.pool.respawns
            for i, pending in enumerate(flight.waiters):
                pending.resolve(ok_response(
                    pending.request.id, payload, cached=False, deduped=i > 0,
                ))
        except Exception as exc:  # defensive: a solve crash must not wedge waiters
            for pending in flight.waiters:
                pending.resolve(error_response(
                    pending.request.id, "internal", f"solve failed: {exc!r}"
                ))
        finally:
            self._inflight.pop(flight.key, None)

    # -- introspection -------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "service": self.metrics.to_dict(),
            "cache": self.cache.stats(),
            "pool": self.pool.stats(),
            "queue": {
                "depth": len(self._inflight),
                "limit": self.config.queue_limit,
            },
            "inflight": len(self._inflight),
            "draining": self._draining,
        }
