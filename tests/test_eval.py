"""Tests for metrics, reporting, and experiment plumbing."""

import pytest

from repro.eval import ExperimentConfig, Table, bar_chart, geometric_mean, speedup, weighted_relative_time
from repro.exec.cells import Cell, resolve_loop
from repro.exec.engine import ExecEngine
from repro.core import pipeline_loop
from repro.machine import r8000
from repro.pipeline import CALLER_SAVED_FP, OverheadReport, pipeline_overhead

from .conftest import build_sdot


class TestMetrics:
    def test_geometric_mean_basic(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_weighted_relative_time(self):
        # Loop A doubled, loop B unchanged, equal weights: 1.5x slower.
        rel = weighted_relative_time([0.5, 0.5], [200.0, 100.0], [100.0, 100.0])
        assert rel == pytest.approx(1.5)

    def test_weighted_relative_time_validates(self):
        with pytest.raises(ValueError):
            weighted_relative_time([1.0], [1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            weighted_relative_time([0.0], [1.0], [1.0])

    def test_speedup(self):
        assert speedup(200, 100) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            speedup(100, 0)


class TestReporting:
    def test_table_formatting(self):
        t = Table("Demo", ["name", "value"])
        t.add("alpha", 1.23456)
        t.add("beta", "x")
        text = t.formatted()
        assert "Demo" in text
        assert "alpha" in text and "1.235" in text

    def test_table_notes(self):
        t = Table("T", ["a"])
        t.notes.append("hello")
        assert "note: hello" in t.formatted()

    def test_bar_chart_reference_marker(self):
        chart = bar_chart("C", [("x", 0.5), ("y", 1.5)], reference=1.0)
        assert "|" in chart
        assert "0.500" in chart and "1.500" in chart

    def test_bar_chart_empty(self):
        assert "no data" in bar_chart("C", [])


class TestOverheadModel:
    def test_components(self, machine):
        loop = build_sdot(machine)
        res = pipeline_loop(loop, machine)
        report = pipeline_overhead(res.schedule, res.allocation, machine)
        assert report.fill_cycles == (res.schedule.n_stages - 1) * res.ii
        assert report.fill_cycles == report.drain_cycles
        assert report.total == report.fill_cycles + report.drain_cycles + report.save_restore_cycles

    def test_save_restore_kicks_in_beyond_caller_saved(self, machine):
        loop = build_sdot(machine)
        res = pipeline_loop(loop, machine)
        if res.allocation.fp_used <= CALLER_SAVED_FP:
            assert pipeline_overhead(res.schedule, res.allocation, machine).save_restore_cycles == 0

    def test_single_stage_loop_has_no_ramp(self):
        report = OverheadReport(fill_cycles=0, drain_cycles=0, save_restore_cycles=0)
        assert report.total == 0


class TestExperimentHelpers:
    @staticmethod
    def _cell(key, scheduler):
        cell = Cell.make(key, scheduler)
        result = ExecEngine().run([cell])[cell]
        assert result.error is None, result.error
        return result

    def test_pipelined_cycles_positive_and_overheaded(self, machine):
        key = "livermore:lk01_hydro"
        loop = resolve_loop(key, machine)
        res = pipeline_loop(loop, machine)
        cell = self._cell(key, "sgi")
        assert cell.ii == res.ii
        bare = res.schedule.span + (loop.trip_count - 1) * res.ii
        assert cell.cycles() >= bare  # includes overhead and stalls

    def test_baseline_slower_than_pipelined(self):
        key = "livermore:lk03_inner"
        assert self._cell(key, "baseline").cycles() > self._cell(key, "sgi").cycles()

    def test_config_resolution(self):
        config = ExperimentConfig()
        options = config.most_cell_options()
        assert options["time_limit"] == config.most_time_limit
        assert options["fallback"]
        assert not config.most_cell_options(fallback=False)["fallback"]
        assert config.most_cell_options(time_limit=1.0)["time_limit"] == 1.0


class TestCorpusProfiles:
    def test_profile_loop_fields(self, machine):
        from repro.eval.corpus import profile_loop

        loop = build_sdot(machine)
        p = profile_loop(loop, machine)
        assert p.n_ops == 4
        assert p.n_mem == 2
        assert p.n_indirect == 0
        assert p.rec_mii == 4
        assert p.min_ii == max(p.res_mii, p.rec_mii)
        assert p.bound == "recurrence"

    def test_livermore_profile_covers_all(self, machine):
        from repro.eval.corpus import livermore_profile

        table = livermore_profile(machine)
        assert len(table.rows) == 24
        bounds = {row[-2] for row in table.rows}
        # The suite must exercise both kinds of lower bound.
        assert "recurrence" in bounds and "resource" in bounds

    def test_spec92_profile_has_indirection(self, machine):
        from repro.eval.corpus import spec92_profile

        table = spec92_profile(machine)
        assert any(row[3] > 0 for row in table.rows)  # some indirect refs
        assert any(row[1] >= 90 for row in table.rows)  # the big bodies
