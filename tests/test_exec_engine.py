"""Tests for the parallel cached experiment engine (repro.exec)."""

from __future__ import annotations

import dataclasses
import importlib
import json
import re
import threading

import pytest

from repro.core.driver import pipeline_loop
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
    resolve_loop,
)
from repro.exec import pool as pool_module
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


#: Each corpus, the workload module that builds it, and its builder.
CORPUS_BUILDERS = (
    ("livermore", "repro.workloads.livermore", "livermore_kernels"),
    ("spec92", "repro.workloads.spec92", "spec92_suite"),
    ("recbound", "repro.workloads.recbound", "recbound_kernels"),
)


def _flat_loops(corpus, built):
    return [loop for bench in built for loop in bench.loops] if corpus == "spec92" else built


class TestLoopMemo:
    @pytest.mark.parametrize("corpus, module, builder", CORPUS_BUILDERS)
    def test_every_key_of_a_corpus_costs_one_build(self, corpus, module, builder, machine,
                                                   monkeypatch):
        """Listing a corpus (alone or within ``all``) and resolving each of
        its keys share one build."""
        workload = importlib.import_module(module)
        original = getattr(workload, builder)
        calls = []

        def counting(m=None):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(workload, builder, counting)
        clear_loop_memo()
        try:
            keys = corpus_loop_keys(corpus, machine)
            loops = [resolve_loop(key, machine) for key in keys]
            in_all = [k for k in corpus_loop_keys("all", machine) if k.startswith(f"{corpus}:")]
        finally:
            clear_loop_memo()
        assert len(calls) == 1
        assert in_all == keys
        direct = _flat_loops(corpus, original(machine))
        assert [fingerprint_loop(loop) for loop in loops] == [
            fingerprint_loop(loop) for loop in direct
        ]

    @pytest.mark.parametrize("key, message", [
        ("livermore:lk99_nothing", "no Livermore kernel named 'lk99_nothing'"),
        ("spec92:alvinn/nothing", "benchmark 'alvinn' has no loop 'nothing'"),
        ("spec92:nothing/sdot", "no SPEC92 benchmark named 'nothing'"),
        ("recbound:rb_nothing", "unknown recbound kernel 'rb_nothing'; known: rb_"),
    ])
    def test_unknown_names_keep_their_messages(self, key, message, machine):
        with pytest.raises(KeyError, match=re.escape(message)):
            resolve_loop(key, machine)

    def test_clearing_the_memo_drops_every_loop_and_its_search_memos(self, machine):
        keys = corpus_loop_keys("livermore", machine)
        clear_loop_memo()
        first = [resolve_loop(key, machine) for key in keys]
        pipeline_loop(first[0], machine)
        assert first[0].ddg._bnb_attempt_memo
        clear_loop_memo()
        again = [resolve_loop(key, machine) for key in keys]
        for old, new in zip(first, again):
            assert new is not old
            assert getattr(new.ddg, "_bnb_attempt_memo", None) is None


class TestHashing:
    def test_loop_fingerprint_sensitive_to_ir(self, machine):
        assert fingerprint_loop(build_sdot(machine)) != fingerprint_loop(build_daxpy(machine))
        assert fingerprint_loop(build_sdot(machine)) == fingerprint_loop(build_sdot(machine))
        # Trip count is result-bearing (simulated cycles depend on it).
        assert fingerprint_loop(build_sdot(machine, trip_count=10)) != fingerprint_loop(
            build_sdot(machine, trip_count=20)
        )

    def test_code_version_is_a_hash(self):
        version = code_version()
        assert len(version) == 64  # sha256 hexdigest
        assert version == code_version()  # cached and stable in-process

    def test_cell_key_changes_with_every_input(self):
        base = cell_key(Cell("scaling:16", "sgi"))
        assert cell_key(Cell("scaling:16", "most")) != base
        assert cell_key(Cell("scaling:16", "sgi", '{"a":1}')) != base
        assert cell_key(Cell("scaling:16", "sgi", trips=(7,))) != base
        assert cell_key(Cell("scaling:16", "sgi", seed=1)) != base

    def test_every_cell_field_but_trace_dir_is_in_the_key(self):
        """A field outside the key lets one cache entry answer two
        different requests; ``trace_dir`` only says where a trace goes."""
        flips = {
            "loop": "livermore:lk03_inner",
            "scheduler": "rau",
            "options_json": '{"enable_membank":false}',
            "trips": (10,),
            "seed": 1,
            "timeout": 5.0,
            "simulate": False,
            "trace": True,
            "explain": True,
            "oracle": True,
            "analyze": True,
        }
        assert set(flips) == {f.name for f in dataclasses.fields(Cell)} - {"trace_dir"}
        engine = ExecEngine()
        base = Cell.make("livermore:lk01_hydro", "sgi")
        base_key = engine.key_of(base)
        for name, value in flips.items():
            assert engine.key_of(dataclasses.replace(base, **{name: value})) != base_key, name
        assert engine.key_of(dataclasses.replace(base, trace_dir="elsewhere")) == base_key


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
        cell = Cell.make("livermore:lk12_firstdiff", "sgi")
        result = engine.run([cell])[cell]
        assert result.success and result.ii is not None
        assert result.ii >= result.min_ii
        assert result.n_ops > 0
        assert "default" in result.sim_cycles
        assert not result.cache_hit and result.cache_key

    def test_a_checker_edit_misses_oracle_and_plain_cells(self, tmp_path, repro_copy):
        """SGI's bank polish runs ``check_schedule`` on every schedule
        (``Schedule.validate()``), so editing it must re-run a plain cell
        as well as an oracle cell, which carries the checkers' verdict."""
        from repro.exec import hashing

        cache_dir = tmp_path / "c"
        oracle = Cell.make("livermore:lk01_hydro", "sgi", oracle=True)
        plain = Cell.make("livermore:lk01_hydro", "sgi")
        engine = ExecEngine(jobs=1, cache=ScheduleCache(cache_dir))
        assert not any(r.cache_hit for r in engine.run([oracle, plain]).values())
        assert all(r.cache_hit for r in engine.run([oracle, plain]).values())

        # The checkers as they would read after an edit to check_schedule.
        schedcheck = repro_copy / "verify" / "schedcheck.py"
        source = schedcheck.read_text(encoding="utf-8")
        edited = source.replace(
            "def check_schedule(", "# every schedule now fails\ndef check_schedule(", 1
        )
        assert edited != source
        schedcheck.write_text(edited, encoding="utf-8")
        hashing.closure_digest.cache_clear()

        rerun = ExecEngine(jobs=1, cache=ScheduleCache(cache_dir)).run([oracle, plain])
        assert not any(r.cache_hit for r in rerun.values())

    def test_cache_hit_on_second_run(self, tmp_path):
        cache_dir = tmp_path / "c"
        cell = Cell.make("livermore:lk12_firstdiff", "sgi")
        first = ExecEngine(jobs=1, cache=ScheduleCache(cache_dir)).run([cell])[cell]
        second_cache = ScheduleCache(cache_dir)
        second = ExecEngine(jobs=1, cache=second_cache).run([cell])[cell]
        assert not first.cache_hit and second.cache_hit
        assert second_cache.stats.hits == 1 and second_cache.stats.misses == 0
        assert second.ii == first.ii
        assert second.sim_cycles == first.sim_cycles

    def test_option_change_misses(self, tmp_path):
        cache = ScheduleCache(tmp_path / "c")
        cell = Cell.make("livermore:lk12_firstdiff", "sgi")
        changed = Cell.make(
            "livermore:lk12_firstdiff", "sgi", {"enable_membank": False}
        )
        ExecEngine(jobs=1, cache=cache).run([cell])
        ExecEngine(jobs=1, cache=cache).run([changed])
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert cache.entry_count() == 2

    def test_ir_change_invalidates(self, tmp_path, repro_copy):
        """Editing a kernel's IR must invalidate its cache entries: the
        kernel's builder is in the code every cell runs."""
        from repro.exec import hashing

        cache = ScheduleCache(tmp_path / "c")
        cell = Cell.make("livermore:lk12_firstdiff", "sgi")
        ExecEngine(jobs=1, cache=cache).run([cell])
        assert cache.stats.misses == 1
        # Same sources again (fresh engine): a hit.
        ExecEngine(jobs=1, cache=cache).run([cell])
        assert cache.stats.hits == 1
        # The kernel "gets edited": same key, different builder — a miss.
        livermore = repro_copy / "workloads" / "livermore.py"
        source = livermore.read_text(encoding="utf-8")
        edited = source.replace("trip_count=", "trip_count=2 * ", 1)
        assert edited != source
        livermore.write_text(edited, encoding="utf-8")
        hashing.closure_digest.cache_clear()
        result = ExecEngine(jobs=1, cache=cache).run([cell])[cell]
        assert cache.stats.misses == 2
        assert not result.cache_hit

    def test_an_unresolvable_loop_is_an_error_result_never_cached(self, tmp_path):
        cache = ScheduleCache(tmp_path / "c")
        cell = Cell.make("nosuchcorpus:zzz", "sgi")
        for _ in range(2):
            result = ExecEngine(jobs=1, cache=cache).run([cell])[cell]
            assert not result.success and not result.cache_hit
            assert "unknown loop source 'nosuchcorpus'" in result.error
        assert cache.stats.stores == 0 and cache.entry_count() == 0

    def test_timeout_falls_back_with_accounting(self, tmp_path):
        """A cell over its deadline is rescued by the heuristic and says so."""
        cache = ScheduleCache(tmp_path / "c")
        cell = Cell.make(
            "livermore:lk12_firstdiff",
            "most",
            {**MOST_OPTS, "_test_sleep": 30.0},
            timeout=0.3,
            oracle=True,
            analyze=True,
            explain=True,
        )
        result = ExecEngine(jobs=1, cache=cache).run([cell])[cell]
        assert result.timeout and result.fallback
        assert result.success and result.ii is not None  # the rescue worked
        assert result.scheduler == "most"  # accounted against the original cell
        assert result.schedule_seconds >= 0.3  # the burned budget is charged
        assert result.error is None
        # The rescue passes through the cell's own layers: it is cached
        # under the oracle cell's key, so it must carry the oracle's verdict.
        assert result.funcsim_ok is True and result.verify_errors == []
        assert result.refined_bound is not None
        assert result.explanation is not None and "binding" in result.explanation
        # The rescue describes itself as the walk's own fallback does: under
        # the cell's scheduler, flagged, with the heuristic's winning order;
        # only the cause in its detail differs.
        walked_cell = Cell.make(
            "livermore:lk12_firstdiff", "most", {**MOST_OPTS, "max_ops": 0}, explain=True
        )
        walked = ExecEngine(jobs=1).run([walked_cell])[walked_cell]
        assert walked.fallback and not walked.timeout
        assert result.order_name == walked.order_name != ""
        rescued, fell_back = dict(result.explanation), dict(walked.explanation)
        assert (rescued["scheduler"], rescued["fallback"]) == ("most", True)
        assert "optimal walk came back empty" not in rescued["detail"]
        walk_cause = "optimal walk came back empty → heuristic fallback; "
        detail = fell_back.pop("detail").removeprefix(walk_cause)
        assert rescued.pop("detail") == "the cell's deadline expired → heuristic fallback; " + detail
        assert rescued == fell_back
        # Timeout results are cacheable (the deadline is part of the key).
        rerun = ExecEngine(jobs=1, cache=ScheduleCache(tmp_path / "c")).run([cell])[cell]
        assert rerun.cache_hit and rerun.timeout and rerun.fallback

    def test_pool_matches_inline(self, tmp_path):
        """jobs=4 and jobs=1 must produce identical IIs and sim cycles."""
        cells = [
            Cell.make(key, scheduler, MOST_OPTS if scheduler == "most" else None)
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
            ),
            Cell.make("livermore:lk24_firstmin", "sgi"),
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
                      simulate=False)
            for key in ("livermore:lk12_firstdiff", "livermore:lk06_linrec")
        ]
        bystanders = [
            Cell.make(f"livermore:{name}", "sgi", simulate=False)
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
                           timeout=1.0, simulate=False)
        others = [
            Cell.make(f"livermore:{name}", "sgi", simulate=False)
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
        )
        result = ExecEngine(jobs=2, retries=0).run([cell])[cell]
        assert marker.exists()
        assert result.error is not None and "died" in result.error
        assert not result.success

    def test_error_results_are_not_cached(self, tmp_path):
        cache = ScheduleCache(tmp_path / "c")
        cell = Cell.make("nonesuch:loop", "sgi")
        result = ExecEngine(jobs=1, cache=cache).run([cell])[cell]
        assert result.error is not None
        assert cache.stats.stores == 0 and cache.entry_count() == 0

    def test_duplicate_cells_run_once(self, tmp_path):
        cache = ScheduleCache(tmp_path / "c")
        cell = Cell.make("livermore:lk12_firstdiff", "sgi")
        results = ExecEngine(jobs=1, cache=cache).run([cell, cell, cell])
        assert len(results) == 1 and cache.stats.stores == 1

    def test_default_timeout_fills_only_unset_cells(self, tmp_path):
        engine = ExecEngine(jobs=1, default_timeout=60.0)
        cell = Cell.make("livermore:lk12_firstdiff", "sgi")
        assert engine._effective(cell).timeout == 60.0
        assert engine._effective(cell.from_dict({**cell.to_dict(), "timeout": 5.0})).timeout == 5.0

    def test_key_of_builds_no_loop(self, monkeypatch):
        import repro.exec.cells as cells_module
        import repro.exec.runner as runner

        def refuse(*args, **kwargs):
            raise AssertionError("keying a cell built its loop")

        monkeypatch.setattr(cells_module, "resolve_loop", refuse)
        monkeypatch.setattr(runner, "resolve_loop", refuse)
        engine = ExecEngine(jobs=1)
        cells = [
            Cell.make(f"livermore:{name}", "sgi")
            for name in ("lk01_hydro", "lk03_inner", "lk07_eos")
        ]
        keys = [engine.key_of(cell) for cell in cells]
        assert len(set(keys)) == 3
        assert keys == [cell_key(cell) for cell in cells]

    def test_progress_stream(self, tmp_path):
        seen = []
        engine = ExecEngine(
            jobs=1, progress=lambda done, total, cell, result: seen.append((done, total))
        )
        cells = [
            Cell.make("livermore:lk12_firstdiff", "sgi"),
            Cell.make("livermore:lk24_firstmin", "sgi"),
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
        cell = Cell.make("livermore:lk12_firstdiff", "sgi", trips=(10, 1000))
        result = CellResult.from_dict(execute_cell(cell.to_dict(), in_worker=False))
        assert set(result.sim_cycles) == {"default", "10", "1000"}
        assert result.cycles(10) < result.cycles(1000)
        with pytest.raises(KeyError):
            result.cycles(77)

    def test_oracle_seconds_time_the_oracle_only(self):
        timed = [
            CellResult.from_dict(execute_cell(
                Cell.make("livermore:lk12_firstdiff", "sgi", oracle=oracle).to_dict(),
                in_worker=False,
            ))
            for oracle in (True, False)
        ]
        assert 0.0 < timed[0].oracle_seconds < timed[0].wall_seconds
        assert timed[0].funcsim_ok is True
        assert timed[1].oracle_seconds == 0.0

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
