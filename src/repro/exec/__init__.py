"""repro.exec — the parallel, cached experiment engine.

The paper's experiments are a grid of independent (loop, scheduler,
options) *cells*; this package fans them out over worker processes with
per-cell wall-clock deadlines (a stuck ILP solve kills only its own cell
and is rescued by the heuristic, with honest timeout/fallback accounting),
caches results content-addressed by the cell's own fields plus a digest of
the code it runs (the import closure of the runner and the cell's
driver, :mod:`repro.exec.hashing`), and emits machine-readable
``BENCH_*.json`` artefacts.  The
experiment drivers in :mod:`repro.eval` and the ``bench`` CLI subcommand
are built on it.

The work splits in two: :mod:`repro.exec.runner` is the worker side (one
cell under its deadline, the oracle, the fallback) and imports only what a
cell runs; :mod:`repro.exec.engine` is the parent side (fan-out over
:mod:`repro.exec.pool`, the cache, the keys).  The names below load on
first access, so a worker importing the runner pays for neither the
engine nor the bench reporter.
"""

from .. import _lazy_exports

#: Each re-exported name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("BENCH_CELL_FIELDS", "BenchOptions", "bench_cells", "build_report", "figure_report",
         "print_progress", "run_pipeline_bench", "run_sweep", "summarise", "write_bench_json"),
        "bench",
    ),
    **dict.fromkeys(("DEFAULT_CACHE_DIR", "CacheStats", "ScheduleCache"), "cache"),
    **dict.fromkeys(
        ("Cell", "CellResult", "LOOP_SOURCES", "SCHEDULERS", "canonical_options",
         "clear_loop_memo", "corpus_cells", "corpus_loop_keys", "resolve_loop"),
        "cells",
    ),
    "ExecEngine": "engine",
    **dict.fromkeys(("cell_key", "code_version", "fingerprint_loop"), "hashing"),
    **dict.fromkeys(("CellTimeout", "execute_cell"), "runner"),
}

__all__ = sorted(_EXPORTS)

__getattr__ = _lazy_exports(__name__, _EXPORTS)
