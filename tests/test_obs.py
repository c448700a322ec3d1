"""Tests for repro.obs: recorder, trace export, effort report, integration.

Covers the acceptance contract of the observability subsystem: the null
recorder is inert, the Chrome trace export is a valid JSON array of
``ph``/``ts``/``pid``/``tid`` events with nested spans, and a seeded
SGI-vs-MOST run produces nonzero node counters on both sides.
"""

import json
import pathlib

import pytest

from repro.core import BnBConfig, min_ii, order_by_name, pipeline_loop, search_ii
from repro.ilp import Model, Sense, SolverOptions, Status, solve_milp
from repro.most.scheduler import MostOptions, most_pipeline_loop
from repro.obs import (
    NULL,
    TraceRecorder,
    get_recorder,
    merge_jsonl,
    read_jsonl,
    recording,
    set_recorder,
    validate_chrome_trace_file,
    validate_trace_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.report import format_effort_table
from repro.rau.scheduler import rau_pipeline_loop

from .conftest import build_daxpy, build_sdot


class TestRecorder:
    def test_default_recorder_is_null_and_inert(self):
        rec = get_recorder()
        assert rec is NULL
        assert not rec.enabled
        with rec.span("anything", foo=1):
            rec.counter("x", 5)
            rec.event("y", bar=2)
        assert rec.counters == {}
        assert rec.events == []

    def test_recording_installs_and_restores(self):
        before = get_recorder()
        with recording() as rec:
            assert get_recorder() is rec
            assert rec.enabled
        assert get_recorder() is before

    def test_recording_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with recording():
                raise RuntimeError("boom")
        assert get_recorder() is NULL

    def test_set_recorder_none_restores_null(self):
        rec = TraceRecorder()
        set_recorder(rec)
        try:
            assert get_recorder() is rec
        finally:
            set_recorder(None)
        assert get_recorder() is NULL

    def test_counters_aggregate(self):
        rec = TraceRecorder()
        rec.counter("a")
        rec.counter("a", 4)
        rec.counter("b", 2.5)
        assert rec.counters == {"a": 5, "b": 2.5}
        # Each bump also emits a Chrome "C" event with the running total.
        c_events = [e for e in rec.events if e["ph"] == "C"]
        assert [e["args"]["value"] for e in c_events if e["name"] == "a"] == [1, 5]

    def test_spans_emit_balanced_b_e_pairs(self):
        rec = TraceRecorder()
        with rec.span("outer", loop="l"):
            with rec.span("inner"):
                rec.event("tick", k=1)
        phases = [(e["name"], e["ph"]) for e in rec.events]
        assert phases == [
            ("outer", "B"), ("inner", "B"), ("tick", "i"), ("inner", "E"), ("outer", "E"),
        ]
        assert validate_trace_events(rec.snapshot()) == []


class TestExport:
    def _sample_recorder(self):
        rec = TraceRecorder(process_name="test")
        with rec.span("a", x=1):
            rec.counter("n", 3)
            with rec.span("b"):
                rec.event("e", y=2)
        return rec

    def test_chrome_trace_is_json_array_of_required_keys(self, tmp_path):
        rec = self._sample_recorder()
        path = write_chrome_trace(rec, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert isinstance(payload, list) and payload
        for event in payload:
            for key in ("name", "ph", "ts", "pid", "tid"):
                assert key in event
        assert validate_chrome_trace_file(path) == []

    def test_jsonl_roundtrip(self, tmp_path):
        rec = self._sample_recorder()
        path = write_jsonl(rec, tmp_path / "spool.jsonl")
        assert read_jsonl(path) == rec.snapshot()

    def test_merge_jsonl_sorts_by_timestamp(self, tmp_path):
        a = [
            {"name": "x", "ph": "i", "ts": 5, "pid": 1, "tid": 1, "args": {}},
            {"name": "x", "ph": "i", "ts": 9, "pid": 1, "tid": 1, "args": {}},
        ]
        b = [{"name": "y", "ph": "i", "ts": 7, "pid": 2, "tid": 2, "args": {}}]
        write_jsonl(a, tmp_path / "a.jsonl")
        write_jsonl(b, tmp_path / "b.jsonl")
        merged = merge_jsonl([tmp_path / "a.jsonl", tmp_path / "b.jsonl"])
        assert [e["ts"] for e in merged] == [5, 7, 9]
        assert validate_trace_events(merged) == []

    def test_validator_rejects_non_array(self):
        assert validate_trace_events({"not": "a list"})

    def test_validator_rejects_missing_keys_and_bad_phase(self):
        assert validate_trace_events([{"name": "x"}])
        bad = [{"name": "x", "ph": "Z", "ts": 1, "pid": 1, "tid": 1}]
        assert validate_trace_events(bad)

    def test_validator_rejects_unbalanced_spans(self):
        open_span = [{"name": "s", "ph": "B", "ts": 1, "pid": 1, "tid": 1}]
        assert any("open spans" in p for p in validate_trace_events(open_span))
        crossed = [
            {"name": "a", "ph": "B", "ts": 1, "pid": 1, "tid": 1},
            {"name": "b", "ph": "B", "ts": 2, "pid": 1, "tid": 1},
            {"name": "a", "ph": "E", "ts": 3, "pid": 1, "tid": 1},
            {"name": "b", "ph": "E", "ts": 4, "pid": 1, "tid": 1},
        ]
        assert any("innermost" in p for p in validate_trace_events(crossed))

    def test_validator_rejects_time_travel_within_lane(self):
        back = [
            {"name": "x", "ph": "i", "ts": 9, "pid": 1, "tid": 1},
            {"name": "x", "ph": "i", "ts": 3, "pid": 1, "tid": 1},
        ]
        assert any("back in time" in p for p in validate_trace_events(back))


class TestSchedulerCounters:
    def test_sgi_vs_most_produce_nonzero_node_counters(self, machine):
        loop = build_sdot(machine)
        with recording() as rec:
            sgi = pipeline_loop(loop, machine)
            most = most_pipeline_loop(
                loop, machine,
                MostOptions(time_limit=10.0, engine="bnb", fallback=False),
            )
        assert sgi.success and most.success
        # The SGI branch-and-bound counted its placements (its "nodes") and
        # the II search its attempts; MOST counted ILP B&B nodes and
        # simplex iterations.  All must be live, nonzero signals.
        assert rec.counters["bnb.placements"] > 0
        assert rec.counters["bnb.attempts"] > 0
        assert rec.counters["ii.attempts"] > 0
        assert rec.counters["ilp.solves"] > 0
        assert rec.counters["ilp.nodes"] > 0
        assert rec.counters["ilp.simplex_iters"] > 0
        assert validate_trace_events(rec.snapshot()) == []

    def test_rau_counters(self, machine):
        loop = build_sdot(machine)
        with recording() as rec:
            res = rau_pipeline_loop(loop, machine)
        assert res.success
        assert rec.counters["rau.placements"] >= loop.n_ops
        assert res.stats.placements >= loop.n_ops
        assert res.stats.evictions == rec.counters.get("rau.evictions", 0)

    def test_disabled_recorder_leaves_results_identical(self, machine):
        loop = build_daxpy(machine)
        plain = pipeline_loop(loop, machine)
        with recording():
            traced = pipeline_loop(loop, machine)
        assert plain.success and traced.success
        assert plain.schedule.times == traced.schedule.times
        assert plain.schedule.ii == traced.schedule.ii


class TestIIAttemptRecording:
    def test_attempts_recorded_on_success(self, machine):
        loop = build_sdot(machine)
        order = order_by_name(loop, machine, "FDMS")
        mii = min_ii(loop, machine)
        res = search_ii(loop, machine, order, mii, 2 * mii)
        assert res.success
        assert res.attempted, "successful search must list the IIs it tried"
        assert res.attempted[-1].success
        assert res.attempted[-1].ii == res.ii
        assert len(res.attempted) == res.attempts
        assert all(a.phase in ("backoff", "binary") for a in res.attempted)

    def test_attempts_recorded_on_failure(self, machine):
        loop = build_sdot(machine)
        order = order_by_name(loop, machine, "FDMS")
        mii = min_ii(loop, machine)
        res = search_ii(
            loop, machine, order, mii, 2 * mii,
            config=BnBConfig(max_placements=0),
        )
        assert not res.success
        # The satellite contract: even a failed search reports every II it
        # visited, with phases and outcomes.
        assert res.attempted
        assert all(not a.success for a in res.attempted)
        assert res.attempted[0].ii == mii
        assert all(a.phase == "backoff" for a in res.attempted)

    def test_linear_mode_phases(self, machine):
        loop = build_daxpy(machine)
        order = order_by_name(loop, machine, "FDMS")
        mii = min_ii(loop, machine)
        res = search_ii(loop, machine, order, mii, 2 * mii, linear=True)
        assert res.success
        assert all(a.phase == "linear" for a in res.attempted)


def knapsack(values, weights, capacity):
    m = Model("knapsack")
    xs = [m.add_var(f"x{i}", binary=True) for i in range(len(values))]
    m.add_constraint({x: w for x, w in zip(xs, weights)}, Sense.LE, capacity)
    m.set_objective({x: v for x, v in zip(xs, values)}, minimize=False)
    return m, xs


class TestMILPEffortAccounting:
    def test_bnb_reports_simplex_iterations_and_zero_gap_on_optimal(self):
        m, _ = knapsack([6, 5, 4], [4, 3, 2], 5)
        res = solve_milp(m, SolverOptions(engine="bnb"))
        assert res.status is Status.OPTIMAL
        assert res.simplex_iterations > 0
        assert res.mip_gap == 0.0
        assert res.limit is None

    def test_bnb_node_limit_sets_limit_field(self):
        m, _ = knapsack(list(range(1, 15)), [2] * 14, 9)
        res = solve_milp(m, SolverOptions(engine="bnb", max_nodes=1))
        assert res.limit == "nodes"
        if res.status is Status.FEASIBLE:
            assert res.mip_gap is None or res.mip_gap >= 0.0

    def test_scipy_reports_nodes_and_gap(self):
        m, _ = knapsack([6, 5, 4], [4, 3, 2], 5)
        res = solve_milp(m, SolverOptions(engine="scipy"))
        assert res.status is Status.OPTIMAL
        assert res.mip_gap == 0.0
        assert res.nodes >= 0  # HiGHS may solve in presolve (0 nodes)

    def test_solver_emits_obs_counters(self):
        m, _ = knapsack([6, 5, 4], [4, 3, 2], 5)
        with recording() as rec:
            solve_milp(m, SolverOptions(engine="bnb"))
        assert rec.counters["ilp.solves"] == 1
        assert rec.counters["ilp.nodes"] > 0
        assert rec.counters["ilp.simplex_iters"] > 0


class TestEffortReport:
    def test_format_effort_table_shape(self, machine):
        class FakeCell:
            def __init__(self, loop, scheduler, seconds, obs, ii=2):
                self.loop = loop
                self.scheduler = scheduler
                self.schedule_seconds = seconds
                self.obs = obs
                self.ii = ii
                self.n_ops = 7
                self.fallback = False
                self.timeout = False

        results = [
            FakeCell("l1", "sgi", 0.01, {"bnb.placements": 50, "ii.attempts": 1}),
            FakeCell("l1", "most", 1.0, {"ilp.nodes": 200, "ilp.simplex_iters": 900}),
            FakeCell("l1", "rau", 0.005, {"rau.placements": 7, "rau.evictions": 0}),
        ]
        table = format_effort_table(results)
        assert "l1" in table
        assert "50" in table and "200" in table
        assert "100.0x" in table  # 1.0s / 0.01s
        assert "geomean" in table


class TestExecTraceIntegration:
    def test_execute_cell_folds_obs_and_writes_spool(self, tmp_path):
        from repro.exec.cells import Cell, clear_loop_memo
        from repro.exec.runner import execute_cell

        clear_loop_memo()  # a fresh loop: its B&B attempts search, not hit the memo
        cell = Cell.make(
            "livermore:lk03_inner", "sgi", simulate=False,
            trace=True, trace_dir=str(tmp_path),
        )
        payload = execute_cell(cell.to_dict(), in_worker=False)
        assert payload["error"] is None
        assert payload["obs"]["bnb.placements"] > 0
        assert payload["obs"]["ii.attempts"] > 0
        spool = payload["trace_file"]
        assert spool is not None
        events = read_jsonl(spool)
        assert events and validate_trace_events(events) == []
        # The whole cell is wrapped in one top-level span.
        assert events[0]["name"] in ("process_name", "cell")

    def test_untraced_cell_carries_no_obs(self):
        from repro.exec.cells import Cell
        from repro.exec.runner import execute_cell

        cell = Cell.make(
            "livermore:lk03_inner", "sgi", simulate=False,
        )
        payload = execute_cell(cell.to_dict(), in_worker=False)
        assert payload["error"] is None
        assert payload["obs"] == {}
        assert payload["trace_file"] is None

    def test_trace_participates_in_cell_key_but_trace_dir_does_not(self):
        from repro.exec.cells import Cell
        from repro.exec.engine import ExecEngine

        engine = ExecEngine()
        plain = Cell.make("livermore:lk03_inner", "sgi")
        traced = Cell.make("livermore:lk03_inner", "sgi", trace=True)
        moved = Cell.make(
            "livermore:lk03_inner", "sgi", trace=True, trace_dir="/elsewhere"
        )
        assert engine.key_of(plain) != engine.key_of(traced)
        assert engine.key_of(traced) == engine.key_of(moved)

    def test_bench_summary_folds_obs_counters(self, tmp_path):
        from repro.exec.bench import BenchOptions, bench_cells, summarise
        from repro.exec.cells import clear_loop_memo
        from repro.exec.engine import ExecEngine

        clear_loop_memo()  # a fresh loop: its B&B attempts search, not hit the memo
        options = BenchOptions(
            corpora=("livermore",), schedulers=("sgi",), cache_dir=None,
            trace=True, trace_dir=str(tmp_path),
        )
        cells = [c for c in bench_cells(options) if c.loop.endswith("lk03_inner")]
        engine = options.engine()
        results = engine.run(cells)
        totals = summarise(list(results.values()))
        assert totals["obs"]["bnb.placements"] > 0
        assert totals["by_scheduler"]["sgi"]["obs"]["ii.attempts"] > 0

    def test_merge_trace_dir(self, tmp_path):
        from repro.exec.bench import merge_trace_dir
        from repro.exec.cells import Cell
        from repro.exec.runner import execute_cell

        for scheduler in ("sgi", "rau"):
            cell = Cell.make(
                "livermore:lk03_inner", scheduler, simulate=False,
                trace=True, trace_dir=str(tmp_path),
            )
            execute_cell(cell.to_dict(), in_worker=False)
        merged = merge_trace_dir(tmp_path)
        assert merged is not None
        assert validate_chrome_trace_file(merged) == []
        assert merge_trace_dir(tmp_path / "empty") is None


class TestBenchTraceCLI:
    """``repro bench --trace``: the effort table, a validated merged trace,
    and cells solved live whatever the cache holds."""

    def _bench(self, tmp_path, *args):
        from repro.__main__ import main

        return main([
            "bench", *args, "--trace", "--output-dir", str(tmp_path / "out"),
            "--cache-dir", str(tmp_path / "cache"),
        ])

    def test_prints_table_and_validates(self, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        rc = self._bench(tmp_path, "livermore", "--quick", "--limit", "2",
                         "--trace-dir", str(trace_dir))
        out = capsys.readouterr().out
        assert rc == 0
        assert "MOST" in out and "geomean" in out
        assert "simplex" not in out  # HiGHS counts nodes, not B&B simplex iterations
        assert "valid; 8/8 cells traced" in out
        payload = json.loads((trace_dir / "trace.json").read_text())
        assert isinstance(payload, list) and payload

    def test_a_warm_cache_still_traces_into_this_runs_directory(self, tmp_path, capsys):
        from repro.exec.cells import clear_loop_memo

        for name in ("T1", "T2"):
            clear_loop_memo()  # each run's loops fresh, as in its own process
            assert self._bench(tmp_path, "recbound", "--schedulers", "sgi",
                               "--trace-dir", str(tmp_path / name)) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "out" / "BENCH_sweep_recbound_sgi.json").read_text())
        assert report["trace"] == str(tmp_path / "T2" / "trace.json")
        assert report["cache"] is None
        assert len(list((tmp_path / "T2").glob("*.jsonl"))) == 6
        for cell in report["cells"]:
            assert not cell["cache_hit"]
            assert pathlib.Path(cell["trace_file"]).parent == tmp_path / "T2"
            assert cell["obs"]["bnb.placements"] > 0

    def test_fails_when_no_trace_was_written(self, tmp_path, monkeypatch, capsys):
        import repro.exec.bench as bench

        monkeypatch.setattr(bench, "merge_trace_dir", lambda trace_dir: None)
        rc = self._bench(tmp_path, "recbound", "--limit", "1", "--schedulers", "sgi")
        assert rc == 1
        assert "no trace files were written" in capsys.readouterr().err
