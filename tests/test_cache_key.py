"""The exec cache key is derived: a cell's fields plus the code it runs.

The code is the import closure of :mod:`repro.exec.runner` and the cell's
registry driver.  The edit tests key the quick bench grid against a
temporary copy of the ``repro`` sources (the ``repro_copy`` fixture), edit
the copy, and check which keys moved; one more runs cells in a fresh
interpreter and checks that every module they load is in their key.
"""

from __future__ import annotations

import pytest

from repro.exec import hashing
from repro.exec.bench import BenchOptions, bench_cells
from repro.exec.hashing import cell_key, code_version
from repro.schedulers import REGISTRY

from .conftest import edit_source, run_fresh

#: The sources the package runs from.
SOURCES = hashing._ROOT

#: Code no cell runs: editing it must re-run nothing.
NOT_RUN = (
    "serve/service.py", "serve/daemon.py", "serve/protocol.py", "serve/loadgen.py",
    "serve/cachetier.py", "serve/__init__.py", "obs/html.py", "obs/trend.py",
    "eval/__init__.py", "eval/experiments.py", "eval/report.py", "__main__.py",
    "analyze/codelint.py", "exec/engine.py", "exec/bench.py", "exec/cache.py",
    "exec/hashing.py", "exec/pool.py", "obs/history.py", "obs/provenance.py",
    "obs/service.py", "obs/report.py", "fuzz/engine.py", "fuzz/corpus.py",
    "fuzz/minimize.py", "fuzz/oracle.py", "exec/verdict.py",
)


@pytest.fixture(scope="module")
def grid():
    cells = bench_cells(BenchOptions(quick=True))
    assert len(cells) == 120
    assert {cell.scheduler for cell in cells} == {"sgi", "most", "rau", "portfolio"}
    return cells


def _keys(cells):
    hashing.closure_digest.cache_clear()
    return [cell_key(cell) for cell in cells]


def _moved(cells, before, after):
    """The schedulers whose cells' keys moved (each scheduler all or none)."""
    moved = {cell.scheduler for cell, a, b in zip(cells, before, after) if a != b}
    kept = {cell.scheduler for cell, a, b in zip(cells, before, after) if a == b}
    assert not moved & kept, f"a scheduler's keys moved only in part: {moved & kept}"
    return moved


def test_an_unedited_copy_at_another_path_gives_the_same_keys(grid, repro_copy,
                                                              monkeypatch):
    copied = _keys(grid)
    monkeypatch.setattr(hashing, "_ROOT", SOURCES)
    assert _keys(grid) == copied
    assert len(set(copied)) == len(grid)


def test_every_module_a_cell_runs_is_in_its_key(grid, repro_copy):
    closures = {
        name: hashing.import_closure(hashing.cell_modules(name), repro_copy)
        for name in ("sgi", "most", "rau", "portfolio")
    }
    for module in ("exec.runner", "obs.explain", "fuzz.inject", "core.bankpolish",
                   "verify.schedcheck"):
        assert all(f"repro.{module}" in closure for closure in closures.values()), module
    paths = {path for closure in closures.values() for path in closure.values()}
    before = _keys(grid)
    for path in sorted(paths):
        original = edit_source(path)
        try:
            moved = _moved(grid, before, _keys(grid))
        finally:
            path.write_bytes(original)
        expected = {name for name, closure in closures.items() if path in closure.values()}
        assert moved == expected, path.relative_to(repro_copy)


@pytest.mark.parametrize("scheduler", sorted(REGISTRY))
def test_the_key_covers_every_module_a_cell_loads(scheduler, tmp_path):
    """What a cell loads at run time, through call-time imports and lazy
    package re-exports alike, is what the AST walk keys it by: a module
    reached only through a package ``__getattr__`` would run unkeyed."""
    report = run_fresh(f"""
        import json, sys
        from repro.exec.cells import Cell
        from repro.exec.runner import execute_cell

        cells = [Cell.make("livermore:lk01_hydro", {scheduler!r}, oracle=True,
                           analyze=True, explain=True)]
        if {scheduler!r} == "sgi":
            cells.append(Cell.make("livermore:lk01_hydro", "sgi", trace=True,
                                   trace_dir={str(tmp_path)!r}))
        errors = [execute_cell(cell.to_dict(), in_worker=False)["error"] for cell in cells]
        loaded = sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))

        from repro.exec import hashing

        closure = hashing.import_closure(hashing.cell_modules({scheduler!r}))
        print(json.dumps({{"errors": errors, "unkeyed": [m for m in loaded if m not in closure]}}))
    """)
    assert report["errors"] == [None] * len(report["errors"])
    assert report["unkeyed"] == []


def test_code_no_cell_runs_is_in_no_key(grid, repro_copy):
    before, version = _keys(grid), code_version()
    for name in NOT_RUN:
        edit_source(repro_copy / name)
    assert _keys(grid) == before
    assert code_version() == version


@pytest.mark.parametrize("module", ["ilp/solver.py", "portfolio/cp.py"])
def test_a_solver_edit_moves_the_optimal_cells_only(grid, repro_copy, module):
    before, version = _keys(grid), code_version()
    edit_source(repro_copy / module)
    assert _moved(grid, before, _keys(grid)) == {"most", "portfolio"}
    assert code_version() != version
