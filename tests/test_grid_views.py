"""verify, explain and analyze are views of one grid.

Each view runs ``repro bench <corpus> --quick`` through the result cache
and prints from the ``BENCH_sweep_<corpus>.json`` it wrote (a subset's
name carries the subset), so every number a view prints is that cell's
number in the BENCH json, and a warm cache answers every cell.  The
json's verdict (``totals.violations``) decides verify's exit: a cached
cell doctored to break one layer fails it.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import re

import pytest

import repro.exec.bench as bench
import repro.exec.cells as cells
from repro.__main__ import main
from repro.analyze.api import analyze_corpus
from repro.exec.cells import CellResult

GRID = ["livermore", "--limit", "3", "--schedulers", "sgi,rau"]

#: Each view's command line after its name (the JSON views print JSON only).
VIEWS = {"verify": [], "explain": ["--json", "-"], "analyze": ["--json", "-"]}


def _view(name, *argv):
    """Run one view; its exit code, its stdout and the BENCH json it wrote
    (the one its ``grid:`` line names)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([name, *argv])
    path = re.search(r"^grid: (\S+), ", err.getvalue(), re.M).group(1)
    return code, out.getvalue(), json.loads(pathlib.Path(path).read_text())


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


def _quiet(*argv):
    """``main(argv)``'s exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def test_a_subset_view_leaves_the_whole_grids_file_alone(tmp_path, monkeypatch):
    """``explain livermore --limit 2`` after the whole ``livermore`` grid
    writes its own file; the whole grid's stays byte-identical."""
    keys = cells.corpus_loop_keys
    monkeypatch.setattr(
        cells, "corpus_loop_keys", lambda corpus, machine=None: keys(corpus, machine)[:3]
    )
    monkeypatch.setattr(bench, "DEFAULT_OUTPUT_DIR", tmp_path)
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert _quiet("bench", "livermore", "--quick", *cache)[0] == 0
    whole = tmp_path / "BENCH_sweep_livermore.json"
    before = whole.read_bytes()
    assert json.loads(before)["totals"]["cells"] == 12

    code, _, report = _view("explain", "livermore", "--limit", "2", "--json", "-", *cache)
    assert code == 0 and report["totals"]["cells"] == 8
    assert report["name"] == "sweep_livermore_limit2"
    assert whole.read_bytes() == before


def _doctor(cache, loop, scheduler, **fields):
    """Overwrite fields of one cached cell's stored result."""
    for path in cache.rglob("*.json"):
        stored = json.loads(path.read_text())
        if (stored["payload"]["loop"], stored["payload"]["scheduler"]) == (loop, scheduler):
            stored["payload"].update(fields)
            path.write_text(json.dumps(stored))
            return
    raise AssertionError(f"no cached {loop} × {scheduler} cell")


#: A sat and an unsat at one II: the agreement layer's contradiction.
CONTRADICTION = [
    {"ii": 2, "backend": "cp", "answer": "sat", "witness_ok": True},
    {"ii": 2, "backend": "ilp", "answer": "unsat"},
]


@pytest.mark.parametrize("scheduler, fields, kind", [
    ("portfolio", {"backend_probes": CONTRADICTION}, "agreement"),
    # lk01_hydro's sgi cell schedules at II=2.
    ("most", {"ii": 3, "optimal": True, "fallback": False}, "optimality"),
])
def test_bench_and_verify_fail_on_a_doctored_cell(tmp_path, scheduler, fields, kind):
    """The grid's verdict runs every layer: a cached cell doctored to
    break one makes ``verify`` and ``bench`` exit 1 naming it."""
    cache = tmp_path / "cache"
    grid = ["livermore", "--limit", "1", "--schedulers", "sgi,most,portfolio",
            "--cache-dir", str(cache)]
    code, _, report = _view("verify", *grid)
    assert code == 0 and report["totals"]["violations"] == []
    _doctor(cache, "livermore:lk01_hydro", scheduler, **fields)

    code, out, report = _view("verify", *grid)
    assert report["cache"]["misses"] == 0  # the view read the doctored cell
    assert code == 1
    assert [(v["loop"], v["scheduler"], v["kind"]) for v in report["totals"]["violations"]] == [
        ("livermore:lk01_hydro", scheduler, kind)
    ]
    row = [line for line in out.splitlines()
           if line.split()[:2] == ["lk01_hydro", scheduler]]
    assert row and row[0].endswith("FAIL")
    assert f"-- lk01_hydro/{scheduler}\n   {kind}: " in out

    code, out = _quiet("bench", "--quick", *grid)
    assert code == 1
    assert f"VIOLATION livermore:lk01_hydro × {scheduler}: {kind}: " in out
