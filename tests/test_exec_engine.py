"""Tests for the parallel cached experiment engine (repro.exec)."""

from __future__ import annotations

import json
import threading

import pytest

from repro.exec import (
    Cell,
    CellResult,
    ExecEngine,
    ScheduleCache,
    canonical_options,
    cell_key,
    clear_loop_memo,
    code_version,
    corpus_loop_keys,
    execute_cell,
    fingerprint_loop,
    fingerprint_machine,
    resolve_loop,
)
from repro.exec import pool as pool_module
from repro.exec.cells import LOOP_SOURCES
from repro.machine import r8000
from repro.most.scheduler import MostOptions
from repro.most.walk import PAPER_TIME_LIMIT, SolveBudget
from repro.schedulers import REGISTRY

from .conftest import build_daxpy, build_sdot

#: Node-limited MOST options: deterministic under any CPU load.
MOST_OPTS = {"time_limit": 10.0, "engine": "scipy", "max_nodes": 500, "max_ops": 61}


class TestCells:
    def test_options_canonicalised(self):
        a = Cell.make("livermore:lk01_hydro", "sgi", {"b": 1, "a": 2})
        b = Cell.make("livermore:lk01_hydro", "sgi", {"a": 2, "b": 1})
        assert a == b
        assert a.options_json == canonical_options({"b": 1, "a": 2})

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            Cell.make("livermore:lk01_hydro", "gcc")

    def test_round_trip(self):
        cell = Cell.make("scaling:16", "most", MOST_OPTS, trips=(10, 100), timeout=5.0)
        assert Cell.from_dict(cell.to_dict()) == cell
        result = CellResult(loop="scaling:16", scheduler="most", ii=4, sim_cycles={"default": 7.0})
        again = CellResult.from_dict(result.to_dict())
        assert again.ii == 4 and again.cycles() == 7.0

    def test_result_from_dict_tolerates_future_fields(self):
        payload = CellResult(loop="l", scheduler="sgi").to_dict()
        payload["a_field_from_the_future"] = 1
        assert CellResult.from_dict(payload).loop == "l"

    def test_corpus_keys_resolve(self, machine):
        keys = corpus_loop_keys("livermore")
        assert len(keys) == 24
        loop = resolve_loop(keys[0], machine)
        assert loop.name == keys[0].split(":")[1]
        with pytest.raises(ValueError):
            corpus_loop_keys("spec2000")

    def test_unknown_loop_source(self, machine):
        with pytest.raises(KeyError):
            resolve_loop("nonesuch:thing", machine)


class TestHashing:
    def test_loop_fingerprint_sensitive_to_ir(self, machine):
        assert fingerprint_loop(build_sdot(machine)) != fingerprint_loop(build_daxpy(machine))
        assert fingerprint_loop(build_sdot(machine)) == fingerprint_loop(build_sdot(machine))
        # Trip count is result-bearing (simulated cycles depend on it).
        assert fingerprint_loop(build_sdot(machine, trip_count=10)) != fingerprint_loop(
            build_sdot(machine, trip_count=20)
        )

    def test_machine_fingerprint_stable(self, machine):
        assert fingerprint_machine(machine) == fingerprint_machine(r8000())

    def test_code_version_is_a_hash(self):
        version = code_version()
        assert len(version) == 64  # sha256 hexdigest
        assert version == code_version()  # cached and stable in-process

    def test_cell_key_changes_with_every_input(self, machine):
        loop_fp = fingerprint_loop(build_sdot(machine))
        machine_fp = fingerprint_machine(machine)
        base = cell_key(loop_fp, machine_fp, "sgi", "{}", (), 0, True, None)
        assert cell_key(loop_fp, machine_fp, "most", "{}", (), 0, True, None) != base
        assert cell_key(loop_fp, machine_fp, "sgi", '{"a":1}', (), 0, True, None) != base
        assert cell_key(loop_fp, machine_fp, "sgi", "{}", (7,), 0, True, None) != base
        assert cell_key(loop_fp, machine_fp, "sgi", "{}", (), 1, True, None) != base


class TestCache:
    def test_round_trip_and_stats(self, tmp_path):
        cache = ScheduleCache(tmp_path / "c")
        assert cache.get("k" * 64) is None
        cache.put("k" * 64, {"ii": 3})
        assert cache.get("k" * 64) == {"ii": 3}
        assert cache.stats.misses == 1 and cache.stats.hits == 1 and cache.stats.stores == 1
        assert cache.entry_count() == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ScheduleCache(tmp_path / "c")
        cache.put("a" * 64, {"ii": 3})
        path = next((tmp_path / "c").glob("*/*/*.json"))
        path.write_text("{not json")
        assert cache.get("a" * 64) is None
        assert cache.stats.invalid == 1


class TestEngine:
    def test_inline_cell_execution(self, tmp_path):
        engine = ExecEngine(jobs=1, cache=ScheduleCache(tmp_path / "c"))
        cell = Cell.make("livermore:lk12_firstdiff", "sgi", verify=False)
        result = engine.run([cell])[cell]
        assert result.success and result.ii is not None
        assert result.ii >= result.min_ii
        assert result.n_ops > 0
        assert "default" in result.sim_cycles
        assert not result.cache_hit and result.cache_key

    def test_cache_hit_on_second_run(self, tmp_path):
        cache_dir = tmp_path / "c"
        cell = Cell.make("livermore:lk12_firstdiff", "sgi", verify=False)
        first = ExecEngine(jobs=1, cache=ScheduleCache(cache_dir)).run([cell])[cell]
        second_cache = ScheduleCache(cache_dir)
        second = ExecEngine(jobs=1, cache=second_cache).run([cell])[cell]
        assert not first.cache_hit and second.cache_hit
        assert second_cache.stats.hits == 1 and second_cache.stats.misses == 0
        assert second.ii == first.ii
        assert second.sim_cycles == first.sim_cycles

    def test_option_change_misses(self, tmp_path):
        cache = ScheduleCache(tmp_path / "c")
        cell = Cell.make("livermore:lk12_firstdiff", "sgi", verify=False)
        changed = Cell.make(
            "livermore:lk12_firstdiff", "sgi", {"enable_membank": False}, verify=False
        )
        ExecEngine(jobs=1, cache=cache).run([cell])
        ExecEngine(jobs=1, cache=cache).run([changed])
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert cache.entry_count() == 2

    def test_ir_change_invalidates(self, tmp_path, machine):
        """Editing a kernel's IR must invalidate its cache entries."""
        trip_count = 100
        LOOP_SOURCES["testsrc"] = lambda rest, m: build_sdot(m, trip_count=trip_count)
        try:
            cache = ScheduleCache(tmp_path / "c")
            cell = Cell.make("testsrc:sdot", "sgi", verify=False)
            ExecEngine(jobs=1, cache=cache).run([cell])
            assert cache.stats.misses == 1
            # Same IR again (fresh engine, fresh memo): a hit.
            clear_loop_memo()
            ExecEngine(jobs=1, cache=cache).run([cell])
            assert cache.stats.hits == 1
            # The kernel "gets edited": same key, different IR — a miss.
            trip_count = 200
            clear_loop_memo()
            result = ExecEngine(jobs=1, cache=cache).run([cell])[cell]
            assert cache.stats.misses == 2
            assert not result.cache_hit
        finally:
            del LOOP_SOURCES["testsrc"]
            clear_loop_memo()

    def test_timeout_falls_back_with_accounting(self, tmp_path):
        """A cell over its deadline is rescued by the heuristic and says so."""
        cache = ScheduleCache(tmp_path / "c")
        cell = Cell.make(
            "livermore:lk12_firstdiff",
            "most",
            {**MOST_OPTS, "_test_sleep": 30.0},
            timeout=0.3,
            verify=False,
        )
        result = ExecEngine(jobs=1, cache=cache).run([cell])[cell]
        assert result.timeout and result.fallback
        assert result.success and result.ii is not None  # the rescue worked
        assert result.scheduler == "most"  # accounted against the original cell
        assert result.schedule_seconds >= 0.3  # the burned budget is charged
        assert result.error is None
        # Timeout results are cacheable (the deadline is part of the key).
        rerun = ExecEngine(jobs=1, cache=ScheduleCache(tmp_path / "c")).run([cell])[cell]
        assert rerun.cache_hit and rerun.timeout and rerun.fallback

    def test_pool_matches_inline(self, tmp_path):
        """jobs=4 and jobs=1 must produce identical IIs and sim cycles."""
        cells = [
            Cell.make(key, scheduler, MOST_OPTS if scheduler == "most" else None, verify=False)
            for key in ("livermore:lk12_firstdiff", "livermore:lk24_firstmin")
            for scheduler in ("sgi", "rau", "most")
        ]
        inline = ExecEngine(jobs=1).run(cells)
        pooled = ExecEngine(jobs=4).run(cells)
        for cell in cells:
            assert inline[cell].ii == pooled[cell].ii, cell.label
            assert inline[cell].sim_cycles == pooled[cell].sim_cycles, cell.label
            assert inline[cell].registers_used == pooled[cell].registers_used, cell.label

    def test_worker_crash_is_retried_once(self, tmp_path):
        """A transient worker death breaks the pool; the cell reruns."""
        marker = tmp_path / "crashed-once"
        cells = [
            Cell.make(
                "livermore:lk12_firstdiff",
                "sgi",
                {"_test_crash_once": str(marker)},
                verify=False,
            ),
            Cell.make("livermore:lk24_firstmin", "sgi", verify=False),
        ]
        results = ExecEngine(jobs=2).run(cells)
        crashy = results[cells[0]]
        assert marker.exists()  # the first attempt really died
        assert crashy.success and crashy.error is None
        assert crashy.attempts == 2
        assert results[cells[1]].success  # the bystander cell still finished

    def test_a_worker_crash_reruns_only_its_own_cell(self, tmp_path):
        """Two crashers among six bystanders: only the crashers run twice."""
        crashers = [
            Cell.make(key, "sgi", {"_test_crash_once": str(tmp_path / key[-6:])},
                      simulate=False, verify=False)
            for key in ("livermore:lk12_firstdiff", "livermore:lk06_linrec")
        ]
        bystanders = [
            Cell.make(f"livermore:{name}", "sgi", simulate=False, verify=False)
            for name in ("lk01_hydro", "lk03_inner", "lk05_tridiag", "lk07_eos",
                         "lk11_firstsum", "lk24_firstmin")
        ]
        results = ExecEngine(jobs=2).run(crashers + bystanders)
        for cell in bystanders:
            assert results[cell].success and results[cell].error is None, cell.label
            assert results[cell].attempts == 1, cell.label
        for cell in crashers:
            assert results[cell].success and results[cell].error is None, cell.label
            assert results[cell].attempts == 2, cell.label

    def test_pool_kills_a_cell_stuck_out_of_the_alarms_reach(self, monkeypatch):
        """A wedged cell comes back as a hard timeout ``GRACE`` past its
        deadline; the engine neither hangs nor retries it."""
        monkeypatch.setattr(pool_module, "GRACE", 1.5)
        wedged = Cell.make("livermore:lk12_firstdiff", "sgi", {"_test_wedge": 60},
                           timeout=1.0, simulate=False, verify=False)
        others = [
            Cell.make(f"livermore:{name}", "sgi", simulate=False, verify=False)
            for name in ("lk01_hydro", "lk03_inner", "lk07_eos")
        ]
        results = {}
        engine = threading.Thread(
            target=lambda: results.update(ExecEngine(jobs=2).run([wedged, *others])),
            daemon=True,
        )
        engine.start()
        engine.join(timeout=30)
        assert not engine.is_alive(), "the engine hung on a wedged worker"
        stuck = results[wedged]
        assert stuck.timeout and not stuck.success
        assert "hard deadline" in stuck.error and stuck.attempts == 1
        for cell in others:
            assert results[cell].success and results[cell].error is None, cell.label

    def test_crash_with_no_retries_becomes_error(self, tmp_path):
        """A worker death past the retry budget is recorded, not looped."""
        marker = tmp_path / "m"
        cell = Cell.make(
            "livermore:lk12_firstdiff",
            "sgi",
            {"_test_crash_once": str(marker)},
            verify=False,
        )
        result = ExecEngine(jobs=2, retries=0).run([cell])[cell]
        assert marker.exists()
        assert result.error is not None and "died" in result.error
        assert not result.success

    def test_error_results_are_not_cached(self, tmp_path):
        cache = ScheduleCache(tmp_path / "c")
        cell = Cell.make("nonesuch:loop", "sgi", verify=False)
        result = ExecEngine(jobs=1, cache=cache).run([cell])[cell]
        assert result.error is not None
        assert cache.stats.stores == 0 and cache.entry_count() == 0

    def test_duplicate_cells_run_once(self, tmp_path):
        cache = ScheduleCache(tmp_path / "c")
        cell = Cell.make("livermore:lk12_firstdiff", "sgi", verify=False)
        results = ExecEngine(jobs=1, cache=cache).run([cell, cell, cell])
        assert len(results) == 1 and cache.stats.stores == 1

    def test_default_timeout_fills_only_unset_cells(self, tmp_path):
        engine = ExecEngine(jobs=1, default_timeout=60.0)
        cell = Cell.make("livermore:lk12_firstdiff", "sgi", verify=False)
        assert engine._effective(cell).timeout == 60.0
        assert engine._effective(cell.from_dict({**cell.to_dict(), "timeout": 5.0})).timeout == 5.0

    def test_key_of_bounds_its_loop_fingerprint_memo(self, monkeypatch):
        import repro.exec.runner as runner

        monkeypatch.setattr(runner, "_LOOP_FP_LIMIT", 2)
        engine = ExecEngine(jobs=1)
        cells = [
            Cell.make(f"livermore:{name}", "sgi", verify=False)
            for name in ("lk01_hydro", "lk03_inner", "lk07_eos")
        ]
        keys = [engine.key_of(cell) for cell in cells]
        assert len(engine._loop_fps) <= 2
        # Starting over never changes a key.
        assert keys == [ExecEngine(jobs=1).key_of(cell) for cell in cells]

    def test_progress_stream(self, tmp_path):
        seen = []
        engine = ExecEngine(
            jobs=1, progress=lambda done, total, cell, result: seen.append((done, total))
        )
        cells = [
            Cell.make("livermore:lk12_firstdiff", "sgi", verify=False),
            Cell.make("livermore:lk24_firstmin", "sgi", verify=False),
        ]
        engine.run(cells)
        assert seen == [(1, 2), (2, 2)]


class TestExecuteCell:
    def test_baseline_cells_simulate_sequentially(self):
        payload = execute_cell(
            Cell.make("livermore:lk12_firstdiff", "baseline").to_dict(), in_worker=False
        )
        result = CellResult.from_dict(payload)
        assert result.success and result.producer == "baseline/list"
        assert result.ii is None  # no pipelined kernel
        assert result.cycles() > 0

    def test_extra_trip_counts_simulated(self):
        cell = Cell.make("livermore:lk12_firstdiff", "sgi", trips=(10, 1000), verify=False)
        result = CellResult.from_dict(execute_cell(cell.to_dict(), in_worker=False))
        assert set(result.sim_cycles) == {"default", "10", "1000"}
        assert result.cycles(10) < result.cycles(1000)
        with pytest.raises(KeyError):
            result.cycles(77)

    def test_scheduler_exception_captured(self):
        cell = Cell.make("livermore:lk12_firstdiff", "sgi", {"unknown_option": 1})
        result = CellResult.from_dict(execute_cell(cell.to_dict(), in_worker=False))
        assert result.error is not None and "unknown_option" in result.error
        assert not result.success

    @pytest.mark.parametrize("scheduler", sorted(REGISTRY))
    def test_unknown_option_rejected_by_every_scheduler(self, scheduler):
        cell = Cell.make("livermore:lk12_firstdiff", scheduler, {"bogus": 1})
        result = CellResult.from_dict(execute_cell(cell.to_dict(), in_worker=False))
        assert not result.success
        assert result.error is not None and "unknown" in result.error
        assert "bogus" in result.error


class TestSolveBudget:
    def test_default_is_the_papers_budget(self):
        assert MostOptions().time_limit == PAPER_TIME_LIMIT == 180.0

    def test_slice_never_exceeds_total_or_remaining(self):
        budget = SolveBudget(total=10.0)
        share = budget.slice(parts=4, floor=1.0)
        assert share <= 10.0
        assert share == pytest.approx(2.5, abs=0.05)
        assert budget.slice(parts=1) <= budget.total

    def test_expired_budget_yields_nothing(self):
        budget = SolveBudget(total=0.0)
        assert budget.expired()
        assert budget.slice(parts=3) == 0.0

    def test_options_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError):
            MostOptions.from_dict({"time_limit": 1.0, "nonsense": True})
        assert MostOptions.from_dict({"time_limit": 2.0}).time_limit == 2.0
