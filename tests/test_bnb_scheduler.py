"""Tests for the branch-and-bound modulo scheduler and pipestage postpass."""

import pytest

from repro.core import (
    BnBConfig,
    Schedule,
    adjust_pipestages,
    min_ii,
    modulo_schedule_bnb,
    order_by_name,
    production_orders,
)
from repro.core.distances import SccDistanceTables
from repro.ir import LoopBuilder

from .conftest import (
    build_divider,
    build_first_diff,
    build_memory_heavy,
    build_recurrence_chain,
    build_sdot,
)


def schedule_at(loop, machine, ii, order_name="FDMS", config=None):
    order = order_by_name(loop, machine, order_name)
    result = modulo_schedule_bnb(loop, machine, ii, order, config)
    if result.times is None:
        return None
    times = adjust_pipestages(loop, ii, result.times)
    return Schedule(loop=loop, machine=machine, ii=ii, times=times)


ALL_FIXTURE_BUILDERS = [
    build_sdot,
    build_first_diff,
    build_recurrence_chain,
    build_memory_heavy,
    build_divider,
]


class TestSccDistances:
    def test_infeasible_ii_detected(self, machine):
        loop = build_sdot(machine)
        # RecMII is 4; at II=3 the self-cycle has positive weight.
        assert not SccDistanceTables(loop, 3).feasible
        assert SccDistanceTables(loop, 4).feasible

    def test_distance_between_cycle_members(self, machine):
        loop = build_recurrence_chain(machine)
        ii = min_ii(loop, machine)
        tables = SccDistanceTables(loop, ii)
        (scc,) = loop.ddg.nontrivial_sccs()
        a, b = scc
        # Around the cycle and back can never be positive at a feasible II.
        assert tables.dist(a, a) is None or tables.dist(a, a) <= 0
        d_ab, d_ba = tables.dist(a, b), tables.dist(b, a)
        assert d_ab is not None and d_ba is not None
        assert d_ab + d_ba <= 0

    def test_cross_scc_distance_is_none(self, machine):
        loop = build_recurrence_chain(machine)
        tables = SccDistanceTables(loop, 8)
        (scc,) = loop.ddg.nontrivial_sccs()
        outside = next(i for i in range(loop.n_ops) if i not in scc)
        assert tables.dist(outside, scc[0]) is None


class TestBnBBasic:
    @pytest.mark.parametrize("builder", ALL_FIXTURE_BUILDERS)
    @pytest.mark.parametrize("order_name", ["FDMS", "FDNMS", "HMS", "RHMS"])
    def test_schedules_at_min_ii_are_valid(self, machine, builder, order_name):
        loop = builder(machine)
        ii = min_ii(loop, machine)
        sched = schedule_at(loop, machine, ii, order_name)
        assert sched is not None, f"{loop.name} unschedulable at MinII={ii} with {order_name}"
        sched.validate()

    def test_infeasible_ii_fails_cleanly(self, machine):
        loop = build_sdot(machine)
        result = modulo_schedule_bnb(
            loop, machine, 3, order_by_name(loop, machine, "FDMS")
        )
        assert not result.success

    def test_bad_priority_list_rejected(self, machine):
        loop = build_sdot(machine)
        with pytest.raises(ValueError):
            modulo_schedule_bnb(loop, machine, 4, [0, 0, 1, 2])

    def test_resource_saturation_forces_failure(self, machine):
        # 3 loads at II=1: only 2 memory ports.
        b = LoopBuilder("threeloads", machine=machine)
        v1 = b.load("a", offset=0)
        v2 = b.load("b", offset=0)
        v3 = b.load("c", offset=0)
        t = b.fadd(b.fadd(v1, v2), v3)
        b.store("o", t)
        loop = b.build()
        order = order_by_name(loop, machine, "FDMS")
        assert not modulo_schedule_bnb(loop, machine, 1, order).success
        assert modulo_schedule_bnb(loop, machine, 2, order).success

    def test_placement_budget_respected(self, machine):
        loop = build_memory_heavy(machine)
        config = BnBConfig(max_placements=1)
        result = modulo_schedule_bnb(
            loop, machine, min_ii(loop, machine),
            order_by_name(loop, machine, "FDMS"), config,
        )
        assert result.placements <= 2


class TestBacktracking:
    def _tight_loop(self, machine):
        """Loop engineered to need backtracking at MinII: a divide plus
        enough adds that naive placement of the divide blocks itself."""
        b = LoopBuilder("tight", machine=machine)
        x = b.load("x")
        y = b.load("y")
        q = b.fdiv(x, y)
        t = b.fadd(q, b.invariant("c1"))
        for k in range(3):
            t = b.fadd(t, b.invariant(f"d{k}"))
        b.store("o", t)
        return b.build()

    def test_backtracking_counted(self, machine):
        loop = self._tight_loop(machine)
        ii = min_ii(loop, machine)
        order = order_by_name(loop, machine, "RHMS")
        result = modulo_schedule_bnb(loop, machine, ii, order)
        # Whatever the outcome, counters must be coherent.
        assert result.placements > 0
        assert result.backtracks >= 0

    def test_unpruned_search_matches_on_small_loops(self, machine):
        loop = build_first_diff(machine)
        ii = min_ii(loop, machine)
        order = order_by_name(loop, machine, "FDMS")
        pruned = modulo_schedule_bnb(loop, machine, ii, order, BnBConfig(prune=True))
        unpruned = modulo_schedule_bnb(loop, machine, ii, order, BnBConfig(prune=False))
        assert pruned.success == unpruned.success

    def test_backtrack_limit_bounds_work(self, machine):
        loop = self._tight_loop(machine)
        ii = min_ii(loop, machine)
        order = order_by_name(loop, machine, "RHMS")
        result = modulo_schedule_bnb(loop, machine, ii, order, BnBConfig(max_backtracks=0))
        assert result.backtracks == 0


class TestPipestageAdjustment:
    def test_repairs_cross_scc_violation(self, machine):
        loop = build_first_diff(machine)
        # Hand-build times violating load->fsub latency across components.
        times = {0: 0, 1: 0, 2: 2, 3: 10}  # fsub too early for its loads
        ii = 2
        fixed = adjust_pipestages(loop, ii, times)
        sched = Schedule(loop=loop, machine=machine, ii=ii, times=fixed)
        assert not sched.dependence_violations()

    def test_preserves_modulo_slots(self, machine):
        loop = build_first_diff(machine)
        times = {0: 1, 1: 0, 2: 2, 3: 5}
        ii = 2
        fixed = adjust_pipestages(loop, ii, times)
        for op, t in times.items():
            assert fixed[op] % ii == t % ii

    def test_noop_on_valid_schedule(self, machine):
        loop = build_sdot(machine)
        ii = min_ii(loop, machine)
        sched = schedule_at(loop, machine, ii)
        fixed = adjust_pipestages(loop, ii, dict(sched.times))
        sched2 = Schedule(loop=loop, machine=machine, ii=ii, times=fixed)
        assert sched2.times == sched.times


class TestScheduleObject:
    def test_missing_op_rejected(self, machine):
        loop = build_sdot(machine)
        with pytest.raises(ValueError):
            Schedule(loop=loop, machine=machine, ii=4, times={0: 0})

    def test_normalisation(self, machine):
        loop = build_first_diff(machine)
        sched = Schedule(loop=loop, machine=machine, ii=2, times={0: 5, 1: 4, 2: 11, 3: 13})
        assert min(sched.times.values()) == 0

    def test_stage_and_slot(self, machine):
        loop = build_first_diff(machine)
        sched = Schedule(loop=loop, machine=machine, ii=2, times={0: 0, 1: 1, 2: 6, 3: 8})
        assert sched.slot(2) == 0
        assert sched.stage(2) == 3
        assert sched.n_stages == 5

    def test_buffer_count_monotone_in_stretch(self, machine):
        loop = build_first_diff(machine)
        tight = Schedule(loop=loop, machine=machine, ii=2, times={0: 0, 1: 1, 2: 7, 3: 9})
        loose = Schedule(loop=loop, machine=machine, ii=2, times={0: 0, 1: 1, 2: 13, 3: 15})
        assert loose.buffer_count() >= tight.buffer_count()

    def test_validate_raises_on_violation(self, machine):
        loop = build_first_diff(machine)
        bad = Schedule(loop=loop, machine=machine, ii=2, times={0: 0, 1: 0, 2: 1, 3: 2})
        with pytest.raises(ValueError):
            bad.validate()


class TestScheduleSerialization:
    def test_roundtrip(self, machine):
        import json

        loop = build_sdot(machine)
        sched = schedule_at(loop, machine, min_ii(loop, machine))
        data = json.loads(json.dumps(sched.to_dict()))
        rebuilt = Schedule.from_dict(data, loop, machine)
        assert rebuilt.times == sched.times
        assert rebuilt.ii == sched.ii
        rebuilt.validate()

    def test_wrong_loop_rejected(self, machine):
        loop = build_sdot(machine)
        other = build_first_diff(machine)
        sched = schedule_at(loop, machine, min_ii(loop, machine))
        with pytest.raises(ValueError, match="loop"):
            Schedule.from_dict(sched.to_dict(), other, machine)

    def test_wrong_machine_rejected(self, machine):
        from repro.machine import two_wide

        loop = build_sdot(machine)
        sched = schedule_at(loop, machine, min_ii(loop, machine))
        with pytest.raises(ValueError, match="machine"):
            Schedule.from_dict(sched.to_dict(), loop, two_wide())


class TestAttemptMemoUnderRecorder:
    """The attempt memo is used whether or not a recorder is live."""

    #: The ``bnb.*`` counters of a traced ``lk01_hydro × sgi`` cell: six
    #: attempts searched, two repeats answered by the memo (which count
    #: search, not replays: 62 placements, where counting the replays
    #: made 8 attempts and 83).
    TRACED_COUNTERS = {"bnb.attempts": 6, "bnb.backtracks": 0, "bnb.placements": 62,
                       "bnb.memo_hits": 2}

    def test_traced_and_untraced_cells_search_alike(self, monkeypatch):
        from repro.core import bnb
        from repro.exec.cells import Cell, clear_loop_memo
        from repro.exec.runner import execute_cell

        calls = []
        real = bnb._Attempt.run

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(bnb._Attempt, "run", counting)
        runs = {}
        for trace in (False, True):
            clear_loop_memo()  # a fresh loop, so its attempt memo starts empty
            calls.clear()
            cell = Cell.make("livermore:lk01_hydro", "sgi", trace=trace)
            result = execute_cell(cell.to_dict(), in_worker=False)
            assert result["error"] is None, result["error"]
            bnb_counters = {k: v for k, v in result["obs"].items() if k.startswith("bnb.")}
            runs[trace] = (len(calls), bnb_counters)
        assert runs[True][0] == runs[False][0]
        assert runs[True][1] == self.TRACED_COUNTERS

    def test_a_cell_counts_its_own_search_whatever_ran_before(self):
        from repro.exec.cells import Cell, clear_loop_memo
        from repro.exec.runner import execute_cell

        clear_loop_memo()
        cell = Cell.make("livermore:lk01_hydro", "sgi", trace=True)
        folded = []
        for _ in range(2):  # the second run finds the loop its first searched
            result = execute_cell(cell.to_dict(), in_worker=False)
            assert result["error"] is None, result["error"]
            folded.append({k: v for k, v in result["obs"].items() if k.startswith("bnb.")})
        assert folded[0] == folded[1] == self.TRACED_COUNTERS

    def test_a_memo_hit_replays_its_event_without_a_span(self, machine):
        from repro.obs import recording

        loop = build_sdot(machine)
        ii = min_ii(loop, machine)
        order = order_by_name(loop, machine, "FDMS")
        with recording() as rec:
            first = modulo_schedule_bnb(loop, machine, ii, order)
            again = modulo_schedule_bnb(loop, machine, ii, order)
        assert again.times == first.times
        assert (again.placements, again.backtracks) == (first.placements, first.backtracks)
        attempts = [e for e in rec.events if e["name"] == "bnb.attempt"]
        spans = [e for e in rec.events if e["name"] == "bnb" and e["ph"] == "B"]
        assert [e["args"].get("memo", False) for e in attempts] == [False, True]
        assert len(spans) == 1
        assert rec.counters["bnb.attempts"] == 1
        assert rec.counters["bnb.memo_hits"] == 1
        assert rec.counters["bnb.placements"] == first.placements

    def test_placements_count_only_the_attempts_searched(self, machine):
        from repro.exec.cells import clear_loop_memo, resolve_loop
        from repro.obs import recording
        from repro.schedulers import get_scheduler

        clear_loop_memo()  # a fresh loop, so its attempt memo starts empty
        loop = resolve_loop("livermore:lk09_predict", machine)
        sgi = get_scheduler("sgi")
        with recording() as rec:
            sgi.run(loop, machine, sgi.options_from_dict({}))
        attempts = [e["args"] for e in rec.events if e["name"] == "bnb.attempt"]
        searched = [a for a in attempts if not a.get("memo")]
        assert 0 < len(searched) < len(attempts)  # the run hit the memo
        assert rec.counters["bnb.placements"] == sum(a["placements"] for a in searched)
        assert rec.counters["bnb.backtracks"] == sum(a["backtracks"] for a in searched)
        assert rec.counters["bnb.attempts"] == len(searched)
        assert rec.counters["bnb.memo_hits"] == len(attempts) - len(searched)
