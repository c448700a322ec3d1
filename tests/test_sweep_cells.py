"""verify, analyze and explain print the grid's crashed cells.

A driver that crashes on one loop becomes one error cell of the BENCH
json: each view still prints every other row, names the crashed cell and
exits 1.  The grid runs uncached: a cached success would answer the
seeded crash.
"""

from __future__ import annotations

import pytest

import repro.exec.cells as cells
import repro.rau.scheduler as rau
from repro.__main__ import main

LOOPS = ("lk01_hydro", "lk02_iccg", "lk03_inner")
CRASHED = "lk02_iccg"


@pytest.fixture(scope="module")
def crashed_grid(tmp_path_factory):
    """``--bench`` for the livermore grid of sgi and rau, written by
    ``repro bench`` with Rau94 raising on ``lk02_iccg`` and the corpora
    shrunk to three loops."""
    real = rau.rau_pipeline_loop

    def crashing(loop, *args, **kwargs):
        if loop.name == CRASHED:
            raise RuntimeError("seeded driver crash")
        return real(loop, *args, **kwargs)

    output = tmp_path_factory.mktemp("grid")
    keys = cells.corpus_loop_keys
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rau, "rau_pipeline_loop", crashing)
        patch.setattr(cells, "corpus_loop_keys",
                      lambda corpus, machine=None: keys(corpus, machine)[:3])
        assert main(["bench", "livermore", "--quick", "--schedulers", "sgi,rau",
                     "--no-cache", "--output-dir", str(output)]) == 1
    return ["--bench", str(output / "BENCH_sweep_livermore_sgi-rau.json")]


def _line(out: str, *words: str) -> str:
    (line,) = [ln for ln in out.splitlines() if all(w in ln.split() for w in words)]
    return line


def test_verify_reports_a_crashed_cell_as_one_failed_row(crashed_grid, capsys):
    capsys.readouterr()
    code = main(["verify", "livermore", *crashed_grid])
    out = capsys.readouterr().out
    assert code == 1
    for loop in LOOPS:
        for scheduler in ("sgi", "rau"):
            line = _line(out, loop, scheduler)
            if (loop, scheduler) == (CRASHED, "rau"):
                assert "unscheduled" in line and line.endswith("FAIL")
            else:
                assert "II=" in line and "FAIL" not in line
    assert f"-- {CRASHED}/rau\n   crash: RuntimeError: seeded driver crash" in out
    assert "1 violation(s)" in out


def test_analyze_reports_a_crashed_cell_as_one_failed_row(crashed_grid, capsys):
    capsys.readouterr()
    code = main(["analyze", "livermore", "--check", *crashed_grid])
    out = capsys.readouterr().out
    assert code == 1
    for loop in LOOPS:
        line = _line(out, loop)
        assert line.endswith("FAIL" if loop == CRASHED else "ok"), line
    assert f"!! {CRASHED}: rau crash: RuntimeError: seeded driver crash" in out


def test_explain_reports_a_crashed_cell_as_one_row(crashed_grid, capsys):
    capsys.readouterr()
    code = main(["explain", "livermore", *crashed_grid])
    captured = capsys.readouterr()
    assert code == 1
    for loop in LOOPS:
        for scheduler in ("sgi", "rau"):
            line = _line(captured.out, loop, scheduler)
            if (loop, scheduler) == (CRASHED, "rau"):
                assert "error" in line.split() and "seeded driver crash" in line
            else:
                assert "resource" in line.split() or "recurrence" in line.split()
    assert "error=1" in captured.out
    assert f"1 cell(s) errored: {CRASHED} × rau" in captured.err
