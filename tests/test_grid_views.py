"""verify, explain and analyze are views of one grid.

Each view runs ``repro bench <corpus> --quick`` through the result cache
and prints from the ``BENCH_sweep_<corpus>.json`` it wrote, so every
number a view prints is that cell's number in the BENCH json, and a warm
cache answers every cell.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

import pytest

import repro.exec.bench as bench
from repro.__main__ import main
from repro.analyze.api import analyze_corpus
from repro.exec.cells import CellResult

GRID = ["livermore", "--limit", "3", "--schedulers", "sgi,rau"]

#: Each view's command line after its name (the JSON views print JSON only).
VIEWS = {"verify": [], "explain": ["--json", "-"], "analyze": ["--json", "-"]}


def _view(name, *argv):
    """Run one view; its exit code, its stdout and the BENCH json it wrote."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([name, *argv])
    report = json.loads((bench.DEFAULT_OUTPUT_DIR / f"BENCH_sweep_{argv[0]}.json").read_text())
    return code, out.getvalue(), report


@pytest.fixture(scope="module")
def first_runs(tmp_path_factory):
    """Each view once, on a cache the first of them fills."""
    cache = ["--cache-dir", str(tmp_path_factory.mktemp("cache"))]
    return cache, {name: _view(name, *GRID, *argv, *cache) for name, argv in VIEWS.items()}


def _cells(report):
    return {(cell["loop"].rpartition(":")[2], cell["scheduler"]): cell
            for cell in report["cells"]}


def test_every_view_prints_the_bench_cells(first_runs):
    _, runs = first_runs
    for name, (code, _, report) in runs.items():
        assert code == 0, name
        assert report["totals"]["cells"] == 6 and report["quick"], name
    code, out, report = runs["verify"]
    cells = _cells(report)
    rows = re.findall(r"^  (\S+)\s+(\S+)\s+II=(\d+)\s+E=(\d+) W=(\d+)", out, re.M)
    assert len(rows) == len(cells) == 6
    for loop, scheduler, ii, errors, warnings in rows:
        cell = cells[loop, scheduler]
        assert (int(ii), int(errors), int(warnings)) == (
            cell["ii"], len(cell["verify_errors"]), len(cell["verify_warnings"])
        ), (loop, scheduler)

    code, out, report = runs["explain"]
    cells = _cells(report)
    explained = json.loads(out)
    assert len(explained) == 6
    for row in explained:
        assert row["binding"] == cells[row["loop"], row["scheduler"]]["explanation"]["binding"]

    code, out, report = runs["analyze"]
    cells = _cells(report)
    entries = json.loads(out)
    assert len(entries) == 3
    for entry in entries:
        for scheduler in ("sgi", "rau"):
            cell = cells[entry["loop"], scheduler]
            assert entry["achieved"][scheduler] == (cell["ii"] if cell["success"] else None)
            assert entry["optimal"][scheduler] == cell["optimal"]
            assert entry["spill_rounds"][scheduler] == cell["spill_rounds"]
            assert entry["schedulable_bound"] == cell["refined_bound"]


def test_a_warm_rerun_prints_the_same_bytes(first_runs):
    cache, runs = first_runs
    assert runs["verify"][2]["cache"]["misses"] == 6  # the first view filled it
    for name, argv in VIEWS.items():
        code, out, report = _view(name, *GRID, *argv, *cache)
        assert (code, out) == runs[name][:2], name
        assert (report["cache"]["hits"], report["cache"]["misses"]) == (6, 0), name


def test_analyze_fails_a_cell_whose_bound_disagrees(tmp_path):
    """A cell's worker-computed bound must equal the one the view derives."""
    cache = tmp_path / "cache"
    grid = ["recbound", "--limit", "2", "--schedulers", "sgi", "--cache-dir", str(cache)]
    code, out, _ = _view("analyze", *grid, "--check")
    assert code == 0 and "ok" in out
    (entry,) = [path for path in cache.rglob("*.json")
                if "rb_div_sqrt" in path.read_text()]
    stored = json.loads(entry.read_text())
    stored["payload"]["refined_bound"] += 1
    entry.write_text(json.dumps(stored))

    code, out, report = _view("analyze", *grid, "--check")
    assert report["cache"]["misses"] == 0  # the view read the doctored cell
    assert code == 1
    row = [line for line in out.splitlines() if line.startswith("  rb_div_sqrt")]
    assert row and row[0].endswith("FAIL")
    assert "sgi cell recorded refined_bound 38, the view derives 37" in out


def test_analyze_corpus_reads_bounds_only_without_results():
    report = analyze_corpus("recbound", limit=1, check=True)
    assert report.ok and report.schedulers == ()
    (entry,) = report.entries
    doctored = CellResult(loop="recbound:rb_coupled_division", scheduler="sgi",
                          success=True, ii=34, refined_bound=33)
    report = analyze_corpus("recbound", [doctored], limit=1)
    assert not report.ok
    assert report.entries[0].to_dict()["bound_mismatches"] == [
        "sgi cell recorded refined_bound 33, the view derives 34"
    ]
