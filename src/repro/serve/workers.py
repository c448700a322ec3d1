"""The daemon's persistent worker pool: warm processes, hard watchdog.

The per-invocation :class:`~repro.exec.runner.ExecEngine` builds a fresh
``ProcessPoolExecutor`` per run; a long-running service wants the
opposite: **long-lived workers** whose per-process memos stay warm across
requests — the loop registry memo, the B&B ``_IIPlan``/distance caches
and the attempt memoization from the raw-speed campaign all amortise
beautifully when the same worker schedules the corpus again and again.

Each worker owns a single-process executor, so the pool can kill and
respawn exactly one wedged worker without disturbing its siblings:

* the *first* line of deadline defence runs **inside** the worker:
  :func:`repro.exec.runner.execute_cell` runs on the worker process's main
  thread under ``SIGALRM``, producing the same ``timeout``/``fallback``
  statuses the CLI path records;
* the pool-side **watchdog** is the one hard stop, for solves wedged in C
  code beyond the alarm's reach: after ``budget + grace`` seconds the
  worker process is killed, a fresh one is spawned, and the cell is
  recorded as a hard timeout error.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional

from ..exec.cells import CellResult
from ..exec.runner import execute_cell

#: Seconds past the in-worker deadline before the watchdog kills a worker.
DEFAULT_GRACE = 10.0


def _hard_timeout_result(spec: Dict[str, Any], seconds: float) -> Dict[str, Any]:
    out = CellResult(
        loop=spec.get("loop", "?"),
        scheduler=spec.get("scheduler", "?"),
        options_json=spec.get("options_json", "{}"),
    )
    out.timeout = True
    out.error = (
        f"worker exceeded the hard deadline ({seconds:.1f}s incl. grace); "
        "killed and respawned by the pool watchdog"
    )
    out.wall_seconds = seconds
    return out.to_dict()


class _Worker:
    """One respawnable worker process slot."""

    def __init__(self, index: int):
        self.index = index
        self.cells = 0
        self.respawns = 0
        self._executor: Optional[ProcessPoolExecutor] = None

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=1)
        return self._executor

    def submit(self, spec: Dict[str, Any]):
        self.cells += 1
        return self.executor.submit(execute_cell, spec)

    def respawn(self) -> None:
        """Kill the backing process (if any) and start a clean executor."""
        self.respawns += 1
        executor, self._executor = self._executor, None
        if executor is None:
            return
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:
                pass
        executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None


class WorkerPool:
    """Fans cells out to persistent workers with a hard watchdog.

    Use from one asyncio event loop only.  ``run`` borrows an idle worker
    (waiting when all are busy — the service's cap on outstanding solves
    provides the actual back-pressure), executes the cell, and returns the
    result payload dict.  A worker that outlives ``hard_timeout`` or dies is
    respawned and the cell reported as an error result rather than an
    exception: the service always has *something* to stream back.
    """

    def __init__(self, jobs: int, grace: float = DEFAULT_GRACE):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.size = jobs
        self.grace = grace
        self.respawns = 0
        self._workers: List[_Worker] = [_Worker(i) for i in range(self.size)]
        self._idle: "asyncio.Queue[_Worker]" = asyncio.Queue()
        for worker in self._workers:
            self._idle.put_nowait(worker)

    async def start(self) -> None:
        """Pre-spawn every worker (optional; first use also spawns)."""
        for worker in self._workers:
            worker.executor  # touch

    async def run(self, spec: Dict[str, Any],
                  hard_timeout: Optional[float] = None) -> Dict[str, Any]:
        worker = await self._idle.get()
        try:
            future = asyncio.wrap_future(worker.submit(spec))
            try:
                if hard_timeout is not None:
                    return await asyncio.wait_for(future, hard_timeout)
                return await future
            except asyncio.TimeoutError:
                worker.respawn()
                self.respawns += 1
                return _hard_timeout_result(spec, hard_timeout or 0.0)
            except (BrokenProcessPool, RuntimeError, OSError) as exc:
                worker.respawn()
                self.respawns += 1
                out = CellResult(
                    loop=spec.get("loop", "?"),
                    scheduler=spec.get("scheduler", "?"),
                    options_json=spec.get("options_json", "{}"),
                    error=f"worker died: {exc!r} (respawned)",
                )
                return out.to_dict()
        finally:
            self._idle.put_nowait(worker)

    def stats(self) -> Dict[str, Any]:
        return {
            "size": self.size,
            "respawns": self.respawns,
            "cells": sum(w.cells for w in self._workers),
        }

    def shutdown(self) -> None:
        """Stop every worker.  Idle ones — all of them after a clean
        drain — are joined, so no executor is left for the interpreter's
        exit hook to wake; one still running a cell is left to finish on
        its own."""
        idle = []
        while not self._idle.empty():
            idle.append(self._idle.get_nowait())
        for worker in self._workers:
            worker.shutdown(wait=worker in idle)
