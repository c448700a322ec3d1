"""The parent side of the exec engine: fan-out, caching and retries.

Cells are independent, so :class:`ExecEngine` fans them out over the one
process pool, :class:`~repro.exec.pool.WorkerPool` (the serve daemon runs
its solves on the same pool); each cell runs through
:func:`repro.exec.runner.execute_cell` under its own deadline.  Cached
results (:mod:`repro.exec.cache`, keyed by :func:`repro.exec.hashing.cell_key`)
come back without running anything.

A transient worker death (OOM kill, interpreter crash) takes down one
worker; the pool respawns it and re-runs only the cell that was on it,
``retries`` times at most, before recording an error result.  With
``jobs=1`` everything runs inline through the *same* worker function, so
parallel and serial runs are byte-identical apart from wall-clock fields.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Sequence

from .cache import ScheduleCache, cache_result, cached_hit
from .cells import Cell, CellResult
from .hashing import cell_key
from .pool import WorkerPool, error_result
from .runner import execute_cell

ProgressFn = Callable[[int, int, Cell, CellResult], None]


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

    # -- keys ----------------------------------------------------------
    def _effective(self, cell: Cell) -> Cell:
        if cell.timeout is None and self.default_timeout is not None:
            cell = Cell.from_dict({**cell.to_dict(), "timeout": self.default_timeout})
        return cell

    def key_of(self, cell: Cell) -> str:
        """Content address of a cell (:func:`~repro.exec.hashing.cell_key`):
        its fields and the digest of its code; no loop is built."""
        return cell_key(cell)

    # -- running -------------------------------------------------------
    def run(self, cells: Sequence[Cell]) -> Dict[Cell, CellResult]:
        """Execute every distinct cell; returns results keyed by cell.

        Cached results are returned without scheduling anything; the rest
        run inline or on the pool.  A loop key that does not resolve comes
        back as the worker's error result, which is never cached.  The
        result map is keyed by the cells as given (before the engine's
        default timeout is applied).
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
            key = self.key_of(self._effective(cell))
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
