"""The one process pool: respawnable per-slot workers, one hard stop.

Every fan-out runs its cells here: ``repro bench --jobs N``, fuzz, the
experiments, the serve daemon's equivalence check
(:class:`~repro.exec.runner.ExecEngine`) and the daemon's solves
(:mod:`repro.serve.service`).  Each slot owns a single-process executor,
so the pool can kill and respawn exactly one worker without disturbing
its siblings, and a worker's per-process memos (the loop registry, the
B&B ``_IIPlan``/distance caches) stay warm across the cells it runs:

* the *first* line of deadline defence runs **inside** the worker:
  :func:`repro.exec.runner.execute_cell` runs on the worker process's main
  thread under ``SIGALRM``, producing the same ``timeout``/``fallback``
  statuses as an inline run;
* the pool-side **watchdog** is the one hard stop, for solves wedged in C
  code beyond the alarm's reach: :data:`GRACE` seconds past the cell's own
  ``timeout`` the worker process is killed, a fresh one is spawned, and
  the cell comes back as a hard-timeout error result, never retried;
* a worker that dies (OOM kill, interpreter crash) is respawned and only
  the cell it was running is re-run, at most ``retries`` times.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional

from .cells import CellResult
from .runner import execute_cell

#: Seconds past a cell's in-worker deadline before the watchdog kills its
#: worker.
GRACE = 10.0


def error_result(spec: Dict[str, Any], error: str, **fields: Any) -> Dict[str, Any]:
    """The payload of a cell that produced no result of its own."""
    out = CellResult(
        loop=spec.get("loop", "?"),
        scheduler=spec.get("scheduler", "?"),
        options_json=spec.get("options_json", "{}"),
        error=error,
        **fields,
    )
    return out.to_dict()


class _Worker:
    """One respawnable worker process slot."""

    def __init__(self):
        self.cells = 0
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
    """Fans cells out to ``jobs`` worker processes with a hard watchdog.

    Use from one asyncio event loop only.  ``run`` borrows an idle worker
    (waiting while all are busy), executes the cell and returns its result
    payload dict.  A worker that outlives the cell's hard stop or dies is
    respawned and the cell reported as an error result rather than an
    exception, so every caller always has a result to record.
    """

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.size = jobs
        self.respawns = 0
        self._workers: List[_Worker] = [_Worker() for _ in range(self.size)]
        self._idle: "asyncio.Queue[_Worker]" = asyncio.Queue()
        for worker in self._workers:
            self._idle.put_nowait(worker)

    async def start(self) -> None:
        """Pre-spawn every worker (optional; first use also spawns)."""
        for worker in self._workers:
            worker.executor  # touch

    async def run(self, spec: Dict[str, Any], retries: int = 0) -> Dict[str, Any]:
        """Run one cell spec; returns its payload with ``attempts`` set.

        The hard stop is the spec's ``timeout`` plus :data:`GRACE` (none
        without a timeout).  A worker death re-runs the cell on the next
        idle worker up to ``retries`` times; a watchdog kill is final.
        """
        timeout = spec.get("timeout")
        hard = None if timeout is None else timeout + GRACE
        attempt = 0
        while True:
            attempt += 1
            worker = await self._idle.get()
            try:
                payload = await asyncio.wait_for(
                    asyncio.wrap_future(worker.submit(spec)), hard
                )
            except asyncio.TimeoutError:
                self._respawn(worker)
                payload = error_result(
                    spec,
                    f"worker exceeded the hard deadline ({hard:.1f}s incl. grace); "
                    "killed and respawned by the pool watchdog",
                    timeout=True,
                    wall_seconds=hard,
                )
            except (RuntimeError, OSError) as exc:  # BrokenProcessPool included
                self._respawn(worker)
                if attempt <= retries:
                    continue
                payload = error_result(spec, f"worker died: {exc!r} (respawned)")
            finally:
                self._idle.put_nowait(worker)
            payload["attempts"] = attempt
            return payload

    def _respawn(self, worker: _Worker) -> None:
        worker.respawn()
        self.respawns += 1

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
