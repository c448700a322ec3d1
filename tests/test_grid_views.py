"""verify, explain and analyze are readers of one grid's BENCH json.

``repro bench <corpus> --quick`` runs the grid and writes
``BENCH_sweep_<corpus>.json``; each view loads that file (``--bench``
names another file or directory) and prints from it, so every number a
view prints is that cell's number in the json.  A view runs no cell:
with the cell runner broken, every view still prints, and a missing json
exits 2 naming the command that writes it.  The json's verdict
(``totals.violations``) decides verify's exit: a cached cell doctored to
break one layer fails the bench that reads it back, and verify with it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro.exec.cells as cells
import repro.exec.runner as runner
import repro.obs.export as export
from repro.__main__ import main
from repro.analyze.api import analyze_corpus
from repro.exec.cells import CellResult

GRID = ["livermore", "--quick", "--limit", "3", "--schedulers", "sgi,rau", "--no-cache"]

#: Each view's command line after its name (the JSON views print JSON only).
VIEWS = {"verify": [], "explain": ["--json", "-"], "analyze": ["--json", "-"]}


def _run(*argv):
    """``main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """A six-cell quick grid's BENCH json, written once by ``repro bench``."""
    output = tmp_path_factory.mktemp("grid")
    code, out, _ = _run("bench", *GRID, "--output-dir", str(output))
    assert code == 0, out
    path = output / "BENCH_sweep_livermore_sgi-rau_limit3.json"
    return path, json.loads(path.read_text())


def _cells(report):
    return {(cell["loop"].rpartition(":")[2], cell["scheduler"]): cell
            for cell in report["cells"]}


def test_every_view_prints_the_bench_cells(grid):
    path, report = grid
    cells = _cells(report)
    runs = {name: _run(name, "livermore", "--bench", str(path), *argv)
            for name, argv in VIEWS.items()}
    for name, (code, _, err) in runs.items():
        assert code == 0, name
        assert err == f"grid: {path}, 6 cells\n", name

    out = runs["verify"][1]
    rows = re.findall(r"^  (\S+)\s+(\S+)\s+II=(\d+)\s+E=(\d+) W=(\d+)", out, re.M)
    assert len(rows) == len(cells) == 6
    for loop, scheduler, ii, errors, warnings in rows:
        cell = cells[loop, scheduler]
        assert (int(ii), int(errors), int(warnings)) == (
            cell["ii"], len(cell["verify_errors"]), len(cell["verify_warnings"])
        ), (loop, scheduler)

    explained = json.loads(runs["explain"][1])
    assert len(explained) == 6
    for row in explained:
        assert row["binding"] == cells[row["loop"], row["scheduler"]]["explanation"]["binding"]

    entries = json.loads(runs["analyze"][1])
    assert [entry["loop"] for entry in entries] == ["lk01_hydro", "lk02_iccg", "lk03_inner"]
    for entry in entries:
        for scheduler in ("sgi", "rau"):
            cell = cells[entry["loop"], scheduler]
            assert entry["achieved"][scheduler] == (cell["ii"] if cell["success"] else None)
            assert entry["optimal"][scheduler] == cell["optimal"]
            assert entry["spill_rounds"][scheduler] == cell["spill_rounds"]
            assert entry["schedulable_bound"] == cell["refined_bound"]


def test_views_run_no_cell_and_write_nothing(grid, monkeypatch):
    """With the cell runner broken, every view still prints from the json,
    and the directory holding it is left as it was."""
    path, _ = grid

    def refuse(*args, **kwargs):
        raise AssertionError("a view ran a cell")

    monkeypatch.setattr(runner, "execute_cell", refuse)
    before = {child.name: child.read_bytes() for child in path.parent.iterdir()}
    for name, argv in VIEWS.items():
        assert _run(name, "livermore", "--bench", str(path), *argv)[0] == 0, name
    assert _run("analyze", "livermore", "--bench", str(path), "--check")[0] == 0
    assert {child.name: child.read_bytes() for child in path.parent.iterdir()} == before


def test_no_view_imports_the_grid_runner(grid):
    """A view's process never loads the bench, the engine or the pool."""
    path, _ = grid
    script = (
        "import contextlib, io, sys\n"
        "from repro.__main__ import main\n"
        "for argv in (['verify'], ['explain', '--json', '-'], ['analyze', '--check']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"        assert main([*argv, 'livermore', '--bench', {str(path)!r}]) == 0, argv\n"
        "print(sorted(m for m in ('repro.exec.bench', 'repro.exec.engine', 'repro.exec.pool')"
        " if m in sys.modules))\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("view", sorted(VIEWS))
def test_a_missing_json_exits_2_naming_the_bench_command(view, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main([view, "spec92", "--bench", str(tmp_path)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"no BENCH json at {tmp_path / 'BENCH_sweep_spec92.json'}" in err
    assert f"`python -m repro bench spec92 --quick --output-dir {tmp_path}` writes it" in err


def test_a_missing_named_file_exits_2_naming_no_command(tmp_path, capsys):
    """A named file that is missing is only missing: no bench command
    writes that name."""
    path = tmp_path / "BENCH_sweep_livermore_sgi.json"
    with pytest.raises(SystemExit) as info:
        main(["verify", "livermore", "--bench", str(path)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"no BENCH json at {path}\n" in err and "writes it" not in err


def test_a_view_refuses_another_corpus_grid(grid, capsys):
    path, _ = grid
    with pytest.raises(SystemExit) as info:
        main(["verify", "recbound", "--bench", str(path)])
    assert info.value.code == 2
    assert "is not the recbound grid (corpora: ['livermore'])" in capsys.readouterr().err


def test_a_directory_resolves_to_the_corpus_grid(grid, tmp_path):
    """``--bench DIR`` reads ``DIR/BENCH_sweep_<corpus>.json``."""
    path, _ = grid
    (tmp_path / "BENCH_sweep_livermore.json").write_bytes(path.read_bytes())
    assert _run("explain", "livermore", "--bench", str(tmp_path))[1] == _run(
        "explain", "livermore", "--bench", str(path))[1]


def test_analyze_fails_a_cell_whose_bound_disagrees(grid, tmp_path):
    """A cell's worker-computed bound must equal the one the view derives."""
    _, report = grid
    doctored = json.loads(json.dumps(report))
    cell = next(cell for cell in doctored["cells"]
                if (cell["loop"], cell["scheduler"]) == ("livermore:lk01_hydro", "sgi"))
    cell["refined_bound"] += 1
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doctored))

    code, out, _ = _run("analyze", "livermore", "--bench", str(path), "--check")
    assert code == 1
    row = [line for line in out.splitlines() if line.startswith("  lk01_hydro")]
    assert row and row[0].endswith("FAIL")
    assert "sgi cell recorded refined_bound 3, the view derives 2" in out


def test_analyze_corpus_rows_are_the_cells_loops():
    doctored = CellResult(loop="recbound:rb_coupled_division", scheduler="sgi",
                          success=True, ii=34, refined_bound=33)
    report = analyze_corpus("recbound", [doctored], check=True)
    assert not report.ok and report.schedulers == ("sgi",)
    (entry,) = report.entries
    assert entry.loop == "rb_coupled_division" and entry.check_errors == []
    assert entry.to_dict()["bound_mismatches"] == [
        "sgi cell recorded refined_bound 33, the view derives 34"
    ]
    assert analyze_corpus("recbound", []).entries == []


def test_a_subset_bench_leaves_the_whole_grids_file_alone(tmp_path, monkeypatch):
    """``bench livermore --limit 2`` after the whole ``livermore`` grid
    writes its own file; the whole grid's stays byte-identical."""
    keys = cells.corpus_loop_keys
    monkeypatch.setattr(
        cells, "corpus_loop_keys", lambda corpus, machine=None: keys(corpus, machine)[:3]
    )
    monkeypatch.setattr(export, "DEFAULT_OUTPUT_DIR", tmp_path)
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert _run("bench", "livermore", "--quick", *cache)[0] == 0
    whole = tmp_path / "BENCH_sweep_livermore.json"
    before = whole.read_bytes()
    assert json.loads(before)["totals"]["cells"] == 12

    assert _run("bench", "livermore", "--quick", "--limit", "2", *cache)[0] == 0
    subset = json.loads((tmp_path / "BENCH_sweep_livermore_limit2.json").read_text())
    assert subset["totals"]["cells"] == 8 and subset["cache"]["misses"] == 0
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
    break one makes ``bench`` and then ``verify`` exit 1 naming it."""
    cache = tmp_path / "cache"
    grid = ["bench", "livermore", "--quick", "--limit", "1",
            "--schedulers", "sgi,most,portfolio", "--cache-dir", str(cache),
            "--output-dir", str(tmp_path)]
    written = tmp_path / "BENCH_sweep_livermore_sgi-most-portfolio_limit1.json"
    view = ["verify", "livermore", "--bench", str(written)]
    assert _run(*grid)[0] == 0
    assert _run(*view)[0] == 0
    _doctor(cache, "livermore:lk01_hydro", scheduler, **fields)

    code, out, _ = _run(*grid)
    assert code == 1
    assert f"VIOLATION livermore:lk01_hydro × {scheduler}: {kind}: " in out
    # The json holds the doctored cell, and its verdict names that cell alone.
    totals = json.loads(written.read_text())
    assert totals["cache"]["misses"] == 0
    assert [(v["loop"], v["scheduler"], v["kind"]) for v in totals["totals"]["violations"]] \
        == [("livermore:lk01_hydro", scheduler, kind)]
    code, out, _ = _run(*view)
    assert code == 1
    row = [line for line in out.splitlines()
           if line.split()[:2] == ["lk01_hydro", scheduler]]
    assert row and row[0].endswith("FAIL")
    assert f"-- lk01_hydro/{scheduler}\n   {kind}: " in out
