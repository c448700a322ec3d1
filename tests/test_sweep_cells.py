"""verify, analyze and explain print from the grid's exec cells.

A driver that crashes on one loop becomes one error cell: the view
still prints every other row, names the crashed cell and exits 1.  Each
view runs uncached: a cached success would answer the seeded crash.
"""

from __future__ import annotations

import pytest

import repro.exec.cells as cells
import repro.rau.scheduler as rau
from repro.__main__ import main

LOOPS = ("lk01_hydro", "lk02_iccg", "lk03_inner")
CRASHED = "lk02_iccg"


@pytest.fixture
def rau_crashes_on_one_loop(monkeypatch):
    """Rau94 raises on ``lk02_iccg``; the corpora shrink to three loops."""
    real = rau.rau_pipeline_loop

    def crashing(loop, *args, **kwargs):
        if loop.name == CRASHED:
            raise RuntimeError("seeded driver crash")
        return real(loop, *args, **kwargs)

    monkeypatch.setattr(rau, "rau_pipeline_loop", crashing)
    keys = cells.corpus_loop_keys
    monkeypatch.setattr(
        cells, "corpus_loop_keys", lambda corpus, machine=None: keys(corpus, machine)[:3]
    )


def _line(out: str, *words: str) -> str:
    (line,) = [ln for ln in out.splitlines() if all(w in ln.split() for w in words)]
    return line


def test_verify_reports_a_crashed_cell_as_one_failed_row(rau_crashes_on_one_loop, capsys):
    code = main(["verify", "livermore", "--schedulers", "sgi,rau", "--no-cache"])
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


def test_analyze_reports_a_crashed_cell_as_one_failed_row(rau_crashes_on_one_loop, capsys):
    code = main(["analyze", "livermore", "--schedulers", "sgi,rau", "--check", "--no-cache"])
    out = capsys.readouterr().out
    assert code == 1
    for loop in LOOPS:
        line = _line(out, loop)
        assert line.endswith("FAIL" if loop == CRASHED else "ok"), line
    assert f"!! {CRASHED}: rau crash: RuntimeError: seeded driver crash" in out


def test_explain_reports_a_crashed_cell_as_one_row(rau_crashes_on_one_loop, capsys):
    code = main(["explain", "livermore", "--schedulers", "sgi,rau", "--no-cache"])
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
