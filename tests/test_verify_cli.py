"""The ``python -m repro verify`` subcommand and the ``--strict`` flag."""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.exec.cache import ScheduleCache
from repro.exec.cells import Cell, corpus_loop_keys
from repro.exec.verdict import format_verify

pytestmark = pytest.mark.verify


class TestVerifyCommand:
    def test_sweep_exits_zero_on_clean_corpus(self, capsys):
        # One scheduler over the smaller corpus keeps this test quick; the
        # full four-scheduler grid is `make verify-corpus`.
        code = main(["verify", "livermore", "--schedulers", "sgi", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 error(s)" in out
        assert "lk24_firstmin" in out

    def test_unknown_corpus_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonesuch"])
        assert exc.value.code == 2
        assert "unknown corpus" in capsys.readouterr().err

    def test_unknown_scheduler_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "livermore", "--schedulers", "bogus"])
        assert exc.value.code == 2
        assert "unknown scheduler" in capsys.readouterr().err

    def test_corpus_loop_keys_counts(self):
        assert len(corpus_loop_keys("livermore")) == 24
        assert len(corpus_loop_keys("recbound")) == 6
        # ``all`` is the three corpora, concatenated in order.
        assert corpus_loop_keys("all") == (
            corpus_loop_keys("livermore")
            + corpus_loop_keys("spec92")
            + corpus_loop_keys("recbound")
        )


class TestFormatVerify:
    def test_rows_fail_where_the_verdict_names_the_cell(self):
        def cell(loop, scheduler, errors=(), warnings=()):
            return {"loop": f"x:{loop}", "scheduler": scheduler, "ii": 2,
                    "verify_errors": list(errors), "verify_warnings": list(warnings)}

        report = {
            "cells": [cell("l", "sgi", warnings=["BANK001: w"]),
                      cell("m", "rau", errors=["SCHED001: e", "REG001: f"])],
            "totals": {"violations": [
                {"loop": "x:m", "scheduler": "rau", "kind": "verify", "detail": "SCHED001: e"},
            ]},
        }
        text = format_verify("x", report)
        assert "E=0 W=1  warn" in text and "E=2 W=0  FAIL  [REG001, SCHED001]" in text
        assert "total: 2 error(s), 1 warning(s), 1 violation(s)" in text
        assert "-- m/rau\n   verify: SCHED001: e\n   SCHED001: e\n   REG001: f" in text
        assert "BANK001: w" not in text.partition("total:")[2]
        assert "   BANK001: w" in format_verify("x", report, verbose=True)


#: A one-cell experiment's cell: the register allocation is corrupted after
#: the driver returns, so only a check of what the runner hands back sees it.
FAULT = Cell.make("livermore:lk01_hydro", "sgi", {"_test_inject": "reg-clobber"})


class _Printed:
    cells = ()

    def formatted(self):
        return "one-cell result"


def _one_cell_experiment(monkeypatch, cell):
    """Register a one-cell experiment; returns the results it saw."""
    import repro.__main__ as mm

    seen = []

    def experiment(config):
        seen.append(config.run_cells([cell])[cell])
        return _Printed()

    monkeypatch.setitem(mm.EXPERIMENTS, "one-cell", (experiment, "one cell"))
    return seen


class TestStrictFlag:
    def test_strict_names_the_faulty_cell_and_rule(self, monkeypatch, capsys):
        _one_cell_experiment(monkeypatch, FAULT)
        assert main(["one-cell", "--strict"]) == 1
        err = capsys.readouterr().err
        assert FAULT.label in err
        assert "verify: REG002" in err and "funcsim: " in err

    def test_without_strict_no_cell_is_verified(self, monkeypatch, capsys):
        seen = _one_cell_experiment(monkeypatch, FAULT)
        assert main(["one-cell"]) == 0
        assert seen[0].verify_errors == [] and seen[0].funcsim_ok is None

    def test_strict_runs_clean_cells_through_the_oracle(self, monkeypatch, capsys):
        seen = _one_cell_experiment(monkeypatch, Cell.make("livermore:lk01_hydro", "sgi"))
        assert main(["one-cell", "--strict"]) == 0
        assert seen[0].verify_errors == [] and seen[0].funcsim_ok is True

    def test_strict_cells_miss_a_non_strict_cache(self, monkeypatch, tmp_path, capsys):
        seen = _one_cell_experiment(monkeypatch, FAULT)
        cache = ["--cache-dir", str(tmp_path)]
        assert main(["one-cell", *cache]) == 0
        assert main(["one-cell", *cache]) == 0
        assert seen[1].cache_hit  # the non-strict run filled the cache
        # ``oracle`` is in the key: the strict cell runs, and is caught.
        assert main(["one-cell", "--strict", *cache]) == 1
        assert ScheduleCache(tmp_path).entry_count() == 2
