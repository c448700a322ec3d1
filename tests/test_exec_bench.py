"""Tests for the bench-JSON layer and its regression gate."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.exec import (
    BENCH_CELL_FIELDS,
    BenchOptions,
    CellResult,
    bench_cells,
    figure_report,
    run_sweep,
    summarise,
    write_bench_json,
)
from repro.obs.diffbench import diff_reports

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestBenchOptions:
    def test_quick_narrows_the_grid(self):
        options = BenchOptions(quick=True)
        # recbound stays in the quick lane: it is only six loops, and it
        # is where the certified static bounds actually prune.
        assert options.corpora == ("livermore", "recbound")
        assert options.scheduler_options("most")["max_nodes"] <= 2000
        assert options.cell_timeout == 60.0

    def test_an_explicit_timeout_survives_quick(self):
        assert BenchOptions(quick=True, cell_timeout=30.0).cell_timeout == 30.0
        assert BenchOptions().cell_timeout == 120.0

    def test_trace_spools_under_the_output_dir(self, tmp_path):
        assert BenchOptions(trace=True, output_dir=tmp_path).trace_dir == str(tmp_path / "trace")
        traced = BenchOptions(trace_dir=str(tmp_path / "spools"))
        assert traced.trace and traced.trace_dir == str(tmp_path / "spools")

    def test_cells_run_the_registry_presets(self):
        # The parent's literal dicts: they feed cache keys and the committed
        # BENCH baselines, so they must not move.
        most = {"time_limit": 20.0, "engine": "scipy", "max_ops": 61, "max_nodes": 4000}
        portfolio = {"time_limit": 20.0, "backends": "cp,ilp", "max_ops": 61,
                     "max_nodes": 20000, "cross_check": True}
        for quick, most_nodes in ((False, 4000), (True, 2000)):
            options = BenchOptions(quick=quick)
            assert options.schedulers == ("sgi", "most", "rau", "portfolio")
            assert options.scheduler_options("most") == {**most, "max_nodes": most_nodes}
            assert options.scheduler_options("portfolio") == portfolio
            for name in ("sgi", "rau", "baseline"):
                assert options.scheduler_options(name) == {}

    def test_grid_shape(self):
        options = BenchOptions(quick=True, schedulers=("sgi", "rau"))
        cells = bench_cells(options)
        assert len(cells) == (24 + 6) * 2  # livermore + recbound
        # One grid serves every view: each cell is verified, explained and
        # carries its certified bound.
        assert all(cell.oracle and cell.explain and cell.analyze for cell in cells)
        limited = bench_cells(BenchOptions(quick=True, schedulers=("sgi",), limit=2))
        assert [cell.loop for cell in limited] == [
            "livermore:lk01_hydro", "livermore:lk02_iccg",
            "recbound:rb_coupled_division", "recbound:rb_div_sqrt",
        ]


class TestSummarise:
    def _result(self, loop, scheduler, **kw):
        base = dict(
            loop=loop, scheduler=scheduler, success=True, ii=4, min_ii=4,
            schedule_seconds=0.01, wall_seconds=0.02,
        )
        base.update(kw)
        return CellResult(**base)

    def test_per_scheduler_accounting(self):
        results = [
            self._result("a", "sgi"),
            self._result("a", "most", schedule_seconds=1.0),
            self._result("b", "most", timeout=True, fallback=True),
        ]
        totals = summarise(results)
        assert totals["cells"] == 3
        assert totals["timeouts"] == 1 and totals["fallbacks"] == 1
        assert totals["by_scheduler"]["most"]["cells"] == 2
        assert totals["by_scheduler"]["sgi"]["at_min_ii"] == 1

    def test_oracle_seconds_sum_per_scheduler(self):
        results = [
            self._result("a", "sgi", oracle_seconds=0.25),
            self._result("b", "sgi", oracle_seconds=0.5),
            self._result("a", "most"),
        ]
        by_scheduler = summarise(results)["by_scheduler"]
        assert by_scheduler["sgi"]["oracle_seconds"] == pytest.approx(0.75)
        assert by_scheduler["most"]["oracle_seconds"] == 0.0

    def test_cost_story_ratio_excludes_rescued_cells(self):
        results = [
            self._result("a", "sgi", schedule_seconds=0.01),
            self._result("a", "most", schedule_seconds=1.0),
            self._result("b", "sgi", schedule_seconds=0.01),
            self._result("b", "most", schedule_seconds=0.001, timeout=True, fallback=True),
        ]
        totals = summarise(results)
        # Native geomean sees only loop "a": 1.0 / 0.01 = 100x.
        assert totals["ilp_vs_heuristic_time_geomean_native"] == pytest.approx(100.0)
        assert totals["ilp_vs_heuristic_time_geomean"] < 100.0


class TestBenchEmission:
    def test_no_cache_dir_means_no_cache(self, tmp_path):
        assert BenchOptions(cache_dir=None).engine().cache is None
        cached = BenchOptions(cache_dir=str(tmp_path / "cache")).engine().cache
        assert cached is not None and cached.directory == tmp_path / "cache"

    def test_sweep_writes_the_contract_fields(self, tmp_path):
        options = BenchOptions(
            quick=True,
            schedulers=("rau",),
            jobs=2,
            cache_dir=str(tmp_path / "cache"),
            output_dir=tmp_path,
        )
        report, path = run_sweep("livermore", options, progress=None)
        assert path == tmp_path / "BENCH_sweep_livermore_rau.json"
        payload = json.loads(path.read_text())
        assert payload["totals"]["cells"] == 24
        assert payload["totals"]["errors"] == 0
        assert payload["code_version"] == report["code_version"]
        for cell in payload["cells"]:
            for field in BENCH_CELL_FIELDS:
                assert field in cell, field

    def test_figure_report_round_trips(self, tmp_path):
        results = [CellResult(loop="l", scheduler="sgi", success=True, ii=3)]
        payload = figure_report("fig0", results)
        path = write_bench_json(payload, tmp_path)
        assert path.name == "BENCH_fig0.json"
        again = json.loads(path.read_text())
        assert again["cells"][0]["ii"] == 3
        assert again["totals"]["cells"] == 1


class TestCheckRegression:
    """``diff_reports`` (the ``repro diff`` gate) on bench-shaped payloads."""

    def _payload(self, cells, code_version="abc"):
        return {
            "code_version": code_version,
            "cells": cells,
            "totals": summarise([CellResult.from_dict(c) for c in cells]),
        }

    def _cell(self, loop="a", scheduler="sgi", **kw):
        base = CellResult(
            loop=loop, scheduler=scheduler, success=True, ii=4,
            schedule_seconds=0.1, sim_cycles={"default": 100.0},
        ).to_dict()
        base.update(kw)
        return base

    def test_clean_comparison(self):
        payload = self._payload([self._cell()])
        diff = diff_reports(payload, payload)
        assert not diff.regressions and not diff.warnings and not diff.infos

    def test_quality_regressions_detected(self):
        baseline = self._payload([self._cell(), self._cell(loop="b")])
        fresh = self._payload(
            [
                self._cell(ii=5),  # II up
                self._cell(loop="b", timeout=True, sim_cycles={"default": 150.0}),
            ]
        )
        text = "\n".join(diff_reports(baseline, fresh).regressions)
        assert "II regressed" in text
        assert "new timeout" in text
        assert "sim cycles regressed" in text

    def test_committed_baseline_matches_the_quick_grid(self):
        """The repo baseline must stay in the quick-bench shape CI produces."""
        baseline_path = REPO_ROOT / "benchmarks" / "baseline" / "BENCH_pipeline.json"
        baseline = json.loads(baseline_path.read_text())
        assert baseline["quick"] is True
        assert baseline["totals"]["cells"] == (24 + 6) * 4  # + recbound
        assert baseline["totals"]["errors"] == 0
        schedulers = {c["scheduler"] for c in baseline["cells"]}
        assert schedulers == {"sgi", "most", "rau", "portfolio"}


@pytest.fixture(scope="module")
def fig7_cold(tmp_path_factory):
    """One cold Figure 7 grid into a module-scoped cache: its config and
    result, shared by every test that needs the grid run once."""
    from repro.eval.experiments import ExperimentConfig, fig7_static_quality

    cache_dir = tmp_path_factory.mktemp("fig7") / "cache"
    config = ExperimentConfig(most_time_limit=2.0, jobs=2, cache_dir=str(cache_dir))
    return config, fig7_static_quality(config)


class TestExperimentCellPlumbing:
    def test_experiments_expose_their_cells(self, fig7_cold):
        _, result = fig7_cold
        assert len(result.cells) == 24 * 2  # sgi + most per kernel
        payload = figure_report(result.name, result.cells)
        assert payload["totals"]["cells"] == 48

    def test_experiment_cache_reused_across_runs(self, fig7_cold):
        from repro.eval.experiments import fig7_static_quality

        config, first = fig7_cold
        second = fig7_static_quality(config)
        assert all(not r.cache_hit for r in first.cells)
        assert all(r.cache_hit for r in second.cells)
        assert first.summary == second.summary
