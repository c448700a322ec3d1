"""Tests for repro.obs.diffbench — attributed bench regression diffing."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.exec.cells import CellResult
from repro.obs.diffbench import BenchDiff, diff_reports, load_bench


def diff_main(argv):
    return main(["diff", *argv])


def _cell(loop="a", scheduler="sgi", **kw):
    base = CellResult(
        loop=loop, scheduler=scheduler, success=True, ii=4, min_ii=4,
        schedule_seconds=0.1, sim_cycles={"default": 100.0},
        cache_key=f"key-{loop}-{scheduler}-{kw.get('options_json', '{}')}",
    ).to_dict()
    base.update(kw)
    return base


def _payload(cells, name="pipeline", code_version="abc"):
    return {"name": name, "code_version": code_version, "cells": cells}


class TestDiffReports:
    def test_identical_runs_are_clean(self):
        payload = _payload([_cell(), _cell(loop="b")])
        diff = diff_reports(payload, payload)
        assert diff.ok
        assert not diff.warnings
        assert all(c.status == "unchanged" for c in diff.cells)
        assert diff.by_cause == {}
        assert "no regressions" in diff.formatted()

    def test_seeded_ii_regression(self):
        old = _payload([_cell(), _cell(loop="b")])
        # A real code change also moves every cache key.
        new = _payload(
            [_cell(ii=5, cache_key="k2-a"), _cell(loop="b", cache_key="k2-b")],
            code_version="def",
        )
        diff = diff_reports(old, new)
        assert not diff.ok
        assert any("II regressed" in r for r in diff.regressions)
        (changed,) = [c for c in diff.cells if c.status == "regression"]
        assert changed.loop == "a"
        assert changed.deltas["ii"] == (4, 5)
        # code_version moved, so the movement is attributed to code.
        assert changed.cause == "code"
        assert diff.by_cause == {"code": 1}

    def test_option_only_change_keeps_its_pair(self):
        old = _payload([_cell(options_json='{"x":1}')])
        new = _payload([_cell(options_json='{"x":2}', ii=5, cache_key="k2")])
        diff = diff_reports(old, new)
        # Different options => different exact keys, but the secondary
        # (loop, scheduler) alignment still pairs the cells instead of
        # reporting one removed and one added.
        (changed,) = [c for c in diff.cells if c.status != "unchanged"]
        assert changed.cause == "options"
        assert changed.deltas["options_json"] == ('{"x":1}', '{"x":2}')
        assert diff.by_cause == {"options": 1}
        # The II move still gates — refresh the baseline when the option
        # change is intentional.
        assert not diff.ok

    def test_a_seed_only_change_is_attributed_to_the_cell_fields(self):
        # Same options and code version: with the loop IR and the machine
        # out of the key, only another cell field (here the seed, which
        # picks the data layout) can move the cache key.
        old = _payload([_cell()])
        new = _payload([_cell(cache_key="key-a-sgi-seed1", sim_cycles={"default": 104.0})])
        diff = diff_reports(old, new)
        (changed,) = diff.cells
        assert changed.cause == "cell-fields"
        assert diff.by_cause == {"cell-fields": 1}

    def test_identical_inputs_timing_delta_is_noise(self):
        old = _payload([_cell()])
        new = _payload([_cell(schedule_seconds=0.15, wall_seconds=0.3)])
        diff = diff_reports(old, new)
        (cell,) = diff.cells
        assert cell.status == "noise"
        assert cell.cause == "identical-inputs"
        assert diff.ok

    def test_identical_inputs_oracle_time_delta_is_noise(self):
        old = _payload([_cell(oracle_seconds=0.02)])
        new = _payload([_cell(oracle_seconds=0.05)])
        diff = diff_reports(old, new)
        (cell,) = diff.cells
        assert cell.deltas == {"oracle_seconds": (0.02, 0.05)}
        assert cell.status == "noise"
        assert diff.ok and not diff.warnings

    def test_identical_inputs_quality_delta_warns_nondeterminism(self):
        old = _payload([_cell()])
        new = _payload([_cell(registers_used=9)])
        diff = diff_reports(old, new)
        assert any("nondeterministic" in w for w in diff.warnings)

    def test_new_timeout_and_fallback_are_regressions(self):
        old = _payload([_cell(), _cell(loop="b")])
        new = _payload(
            [
                _cell(timeout=True, cache_key="k2-a"),
                _cell(loop="b", fallback=True, cache_key="k2-b"),
            ],
            code_version="def",
        )
        diff = diff_reports(old, new)
        text = "\n".join(diff.regressions)
        assert "new timeout" in text
        assert "new fallback" in text

    @pytest.mark.parametrize(
        "field, old_value, new_value, message",
        [
            ("optimal", True, False, "optimality proof lost"),
        ],
    )
    def test_lost_proof_and_oracle_failures_are_regressions(
        self, field, old_value, new_value, message
    ):
        old = _payload([_cell(**{field: old_value})])
        new = _payload([_cell(**{field: new_value}, cache_key="k2")], code_version="def")
        diff = diff_reports(old, new)
        assert not diff.ok
        assert any(message in r for r in diff.regressions), diff.regressions
        (cell,) = diff.cells
        assert cell.status == "regression"
        assert field in cell.deltas  # never reported as a timing-only change
        # The same payload on both sides, each of these values, is clean.
        for value in (old_value, new_value):
            same = _payload([_cell(**{field: value})])
            assert diff_reports(same, same).ok

    @pytest.mark.parametrize("field, value, kind", [
        ("funcsim_ok", False, "funcsim"),
        ("verify_errors", ["SCHED001: resource conflict"], "verify"),
        ("error", "Traceback\nRuntimeError: boom", "crash"),
    ])
    def test_a_new_violation_of_the_verdict_is_a_regression(self, field, value, kind):
        from repro.exec.bench import summarise

        def with_verdict(cells):
            return {**_payload(cells), "totals": summarise(
                [CellResult.from_dict(c) for c in cells])}

        clean = with_verdict([_cell(), _cell(loop="b")])
        broken = with_verdict([_cell(**{field: value}), _cell(loop="b")])
        diff = diff_reports(clean, broken)
        (regression,) = diff.regressions
        assert regression.startswith(f"new violation: a × sgi: {kind}: ")
        assert [c.loop for c in diff.cells if c.status == "regression"] == ["a"]
        # A violation both runs share, or one a run cleared, is no news;
        # a baseline written before the verdict reads as clean.
        assert diff_reports(broken, broken).ok
        assert diff_reports(broken, clean).ok
        assert not diff_reports(_payload(clean["cells"]), broken).ok

    def test_a_proof_gained_or_an_oracle_not_run_is_no_regression(self):
        old = _payload([_cell(optimal=False, funcsim_ok=True)])
        new = _payload([_cell(optimal=True, funcsim_ok=None, cache_key="k2")], code_version="def")
        diff = diff_reports(old, new)
        assert diff.ok, diff.regressions
        (cell,) = diff.cells
        assert cell.deltas["optimal"] == (False, True)

    def test_a_cell_without_a_schedule_in_both_runs_is_clean(self):
        # A scheduler that gives up on a loop (RAU on mdljdp2) gives up
        # again: same inputs, same None — nothing regressed.
        gave_up = dict(success=False, ii=None, sim_cycles={})
        old = _payload([_cell(**gave_up), _cell(loop="b")])
        diff = diff_reports(old, _payload([_cell(**gave_up), _cell(loop="b")]))
        assert diff.ok, diff.regressions
        assert {c.status for c in diff.cells} == {"unchanged"}
        # Losing a schedule still regresses.
        lost = diff_reports(_payload([_cell()]), _payload([_cell(**gave_up)]))
        assert any("II regressed" in r and "4 -> None" in r for r in lost.regressions)

    def test_removed_cell_regresses_added_cell_informs(self):
        old = _payload([_cell(), _cell(loop="b")])
        new = _payload([_cell(), _cell(loop="c")])
        diff = diff_reports(old, new)
        assert any("disappeared" in r for r in diff.regressions)
        assert any("new cell" in i for i in diff.infos)
        statuses = {c.loop: c.status for c in diff.cells}
        assert statuses["b"] == "removed"
        assert statuses["c"] == "added"

    def test_slow_schedule_time_is_warn_only(self):
        # The per-scheduler time ratio reads the report totals, the same
        # aggregation a real bench run writes.
        from repro.exec.bench import summarise

        def with_totals(cells):
            payload = _payload(cells)
            payload["totals"] = summarise([CellResult.from_dict(c) for c in cells])
            return payload

        old = with_totals([_cell(schedule_seconds=0.1)])
        new = with_totals([_cell(schedule_seconds=1.0)])
        diff = diff_reports(old, new)
        assert diff.ok
        assert any("sgi total schedule_seconds up 10.0x" in w for w in diff.warnings)

    def test_to_dict_shape(self):
        old = _payload([_cell()])
        new = _payload([_cell(ii=5, cache_key="k2")], code_version="def")
        data = diff_reports(old, new).to_dict()
        assert set(data) >= {
            "old", "new", "old_code_version", "new_code_version",
            "by_cause", "regressions", "warnings", "infos", "cells",
        }
        assert json.dumps(data)  # JSON-serialisable throughout
        again = BenchDiff(
            old_name=data["old"], new_name=data["new"],
            old_code_version=data["old_code_version"],
            new_code_version=data["new_code_version"],
        )
        assert again.ok


class TestLoadAndCli:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_load_bench_resolves_directories(self, tmp_path):
        payload = _payload([_cell()])
        self._write(tmp_path, "BENCH_pipeline.json", payload)
        assert load_bench(tmp_path)["cells"] == payload["cells"]
        assert load_bench(tmp_path / "BENCH_pipeline.json")["name"] == "pipeline"

    def test_load_bench_rejects_ambiguous_directories(self, tmp_path):
        self._write(tmp_path, "BENCH_a.json", _payload([], name="a"))
        self._write(tmp_path, "BENCH_b.json", _payload([], name="b"))
        with pytest.raises(FileNotFoundError):
            load_bench(tmp_path)

    def test_diff_of_loaded_files(self, tmp_path):
        old = self._write(tmp_path, "old.json", _payload([_cell()]))
        new = self._write(
            tmp_path, "new.json",
            _payload([_cell(ii=5, cache_key="k2")], code_version="def"),
        )
        assert not diff_reports(load_bench(old), load_bench(new)).ok

    def test_strict_exit_codes(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", _payload([_cell()]))
        same = self._write(tmp_path, "same.json", _payload([_cell()]))
        regressed = self._write(
            tmp_path, "bad.json",
            _payload([_cell(ii=5, cache_key="k2")], code_version="def"),
        )
        assert diff_main([str(old), str(same), "--strict"]) == 0
        assert diff_main([str(old), str(regressed), "--strict"]) != 0
        # Without --strict the same regression only warns.
        assert diff_main([str(old), str(regressed)]) == 0
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_strict_fails_on_a_new_violation(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", _payload([_cell()]))
        violation = {"loop": "a", "scheduler": "sgi", "kind": "agreement",
                     "detail": "II=4: cp answered sat but ilp answered unsat"}
        new = self._write(tmp_path, "new.json", {
            **_payload([_cell()]), "totals": {"violations": [violation]}})
        assert diff_main([str(old), str(new), "--strict"]) == 1
        assert "REGRESSION: new violation: a × sgi: agreement: II=4" in capsys.readouterr().out

    def test_json_output(self, tmp_path):
        old = self._write(tmp_path, "old.json", _payload([_cell()]))
        new = self._write(
            tmp_path, "new.json",
            _payload([_cell(ii=5, cache_key="k2")], code_version="def"),
        )
        out = tmp_path / "diff.json"
        diff_main([str(old), str(new), "--json", str(out)])
        data = json.loads(out.read_text())
        assert data["by_cause"] == {"code": 1}


def _micro(scale):
    """A BENCH_micro payload whose kernels take ``scale`` times the baseline."""
    return {
        "name": "micro", "code_version": "abc",
        "benches": {"bnb_search": 0.02 * scale, "scc_distances": 0.01 * scale},
    }


class TestMicroVerdicts:
    """The micro lane's verdicts come from the one tolerance table."""

    @pytest.mark.parametrize("scale, ok, warned", [
        (1.2, True, False),
        (2.0, True, True),
        (3.5, False, False),
    ])
    def test_slowdown_verdicts(self, scale, ok, warned):
        diff = diff_reports(_micro(1.0), _micro(scale))
        assert diff.ok is ok
        assert bool(diff.warnings) is warned
        if not ok:
            assert len(diff.regressions) == 2
            assert all(line.startswith("micro ") for line in diff.regressions)

    def test_cli_strict_fails_past_the_tolerance(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        old.write_text(json.dumps(_micro(1.0)))
        new = tmp_path / "new.json"
        new.write_text(json.dumps(_micro(3.5)))
        assert diff_main([str(old), str(new), "--name", "micro", "--strict"]) == 1
        assert "REGRESSION: micro bnb_search seconds up 3.5x" in capsys.readouterr().out
        new.write_text(json.dumps(_micro(1.2)))
        assert diff_main([str(old), str(new), "--name", "micro", "--strict"]) == 0
