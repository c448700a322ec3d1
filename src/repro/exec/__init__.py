"""repro.exec — the parallel, cached experiment engine.

The paper's experiments are a grid of independent (loop, scheduler,
options) *cells*; this package fans them out over worker processes with
per-cell wall-clock deadlines (a stuck ILP solve kills only its own cell
and is rescued by the heuristic, with honest timeout/fallback accounting),
caches results content-addressed by the cell's own fields plus a digest of
the code it runs (the import closure of the runner and the cell's
driver, :mod:`repro.exec.hashing`), and emits machine-readable
``BENCH_*.json`` artefacts.  The
experiment drivers in :mod:`repro.eval` and the ``bench``/``sweep`` CLI
subcommands are built on it.
"""

from .cache import DEFAULT_CACHE_DIR, CacheStats, ScheduleCache
from .cells import (
    Cell,
    CellResult,
    LOOP_SOURCES,
    SCHEDULERS,
    canonical_options,
    clear_loop_memo,
    corpus_cells,
    corpus_loop_keys,
    resolve_loop,
)
from .bench import (
    BENCH_CELL_FIELDS,
    BenchOptions,
    bench_cells,
    build_report,
    figure_report,
    print_progress,
    run_pipeline_bench,
    run_sweep,
    summarise,
    write_bench_json,
)
from .hashing import cell_key, code_version, fingerprint_loop
from .runner import CellTimeout, ExecEngine, execute_cell

__all__ = [
    "BENCH_CELL_FIELDS",
    "BenchOptions",
    "Cell",
    "CellResult",
    "CellTimeout",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "ExecEngine",
    "LOOP_SOURCES",
    "SCHEDULERS",
    "ScheduleCache",
    "bench_cells",
    "build_report",
    "canonical_options",
    "cell_key",
    "clear_loop_memo",
    "code_version",
    "corpus_cells",
    "corpus_loop_keys",
    "execute_cell",
    "figure_report",
    "fingerprint_loop",
    "print_progress",
    "run_pipeline_bench",
    "run_sweep",
    "summarise",
    "write_bench_json",
]
