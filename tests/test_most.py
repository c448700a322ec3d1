"""Tests for the MOST ILP formulation and optimal scheduler."""

import pytest

from repro.core import Schedule, min_ii, pipeline_loop
from repro.ilp import SolverOptions, Status, solve_milp
from repro.ir import LoopBuilder
from repro.machine import r8000, two_wide
from repro.most import MostOptions, build_formulation, most_pipeline_loop
from repro.portfolio.formulation import build_modulo_formulation, time_windows
from repro.sim import DataLayout, run_pipelined, run_sequential

from .conftest import build_daxpy, build_first_diff, build_recurrence_chain, build_sdot

FAST = MostOptions(time_limit=20.0, engine="scipy")


def fast_options(**kw):
    base = dict(time_limit=20.0, engine="scipy")
    base.update(kw)
    return MostOptions(**base)


class TestTimeWindows:
    def test_chain_windows(self, machine):
        loop = build_sdot(machine)
        windows = time_windows(loop, ii=4, horizon=20)
        # Loads before fmul before fadd.
        assert windows[0][0] == 0
        assert windows[2][0] >= 6  # fmul after load latency
        assert windows[3][0] >= 10

    def test_collapsed_window_returns_none(self, machine):
        loop = build_sdot(machine)
        assert time_windows(loop, ii=4, horizon=8) is None  # too short


class TestFormulation:
    def test_solution_decodes_to_valid_schedule(self, machine):
        loop = build_sdot(machine)
        mii = min_ii(loop, machine)
        f = build_formulation(build_modulo_formulation(loop, machine, mii))
        result = solve_milp(f.model, SolverOptions(engine="scipy", time_limit=20))
        assert result.status is Status.OPTIMAL
        times = f.decode_times(result)
        Schedule(loop=loop, machine=machine, ii=mii, times=times).validate()

    def test_infeasible_ii_flagged(self, machine):
        loop = build_sdot(machine)
        f = build_formulation(build_modulo_formulation(loop, machine, 3))  # below RecMII=4
        assert f.infeasible

    def test_resource_constraints_enforced(self, machine):
        # 3 loads cannot fit 2 ports at II=1.
        b = LoopBuilder("three", machine=machine)
        v1 = b.load("a", offset=0)
        v2 = b.load("b", offset=0)
        v3 = b.load("c", offset=0)
        b.store("o", b.fadd(b.fadd(v1, v2), v3))
        loop = b.build()
        f = build_formulation(build_modulo_formulation(loop, machine, 1))
        if not f.infeasible:
            result = solve_milp(f.model, SolverOptions(engine="scipy", time_limit=20))
            assert result.status is Status.INFEASIBLE

    def test_buffer_objective_counts_buffers(self, machine):
        loop = build_first_diff(machine)
        mii = min_ii(loop, machine)
        f = build_formulation(build_modulo_formulation(loop, machine, mii), "buffers")
        result = solve_milp(f.model, SolverOptions(engine="scipy", time_limit=20))
        assert result.has_solution
        times = f.decode_times(result)
        sched = Schedule(loop=loop, machine=machine, ii=mii, times=times)
        sched.validate()
        # The solver's buffer count matches the schedule-derived count
        # (the objective includes a < 1 lifetime tie-break term).
        assert int(result.objective) == sched.buffer_count()

    def test_buffer_cutoff_respected(self, machine):
        loop = build_first_diff(machine)
        mii = min_ii(loop, machine)
        f = build_formulation(build_modulo_formulation(loop, machine, mii), "buffers", cutoff=0)
        result = solve_milp(f.model, SolverOptions(engine="scipy", time_limit=20))
        assert result.status is Status.INFEASIBLE  # every value needs >= 1

    def test_branch_priority_covers_assignment_vars(self, machine):
        loop = build_sdot(machine)
        f = build_formulation(build_modulo_formulation(loop, machine, min_ii(loop, machine)))
        priority = f.branch_priority(list(range(loop.n_ops)))
        assert set(priority) <= {v.index for v in f.model.variables}
        assert len(priority) == len(f.assign)


class TestMostScheduler:
    @pytest.mark.parametrize(
        "builder", [build_sdot, build_daxpy, build_first_diff, build_recurrence_chain]
    )
    def test_achieves_min_ii_on_small_kernels(self, machine, builder):
        loop = builder(machine)
        res = most_pipeline_loop(loop, machine, fast_options())
        assert res.success
        assert not res.fallback_used
        assert res.ii == res.min_ii
        assert res.optimal
        res.schedule.validate()

    def test_never_beats_min_ii(self, machine, sdot):
        res = most_pipeline_loop(sdot, machine, fast_options())
        assert res.ii >= min_ii(sdot, machine)

    def test_matches_heuristic_ii_on_simple_kernels(self, machine, daxpy):
        most = most_pipeline_loop(daxpy, machine, fast_options())
        sgi = pipeline_loop(daxpy, machine)
        assert most.ii == sgi.ii

    def test_buffers_reported(self, machine, sdot):
        res = most_pipeline_loop(sdot, machine, fast_options())
        assert res.buffers is not None
        assert res.buffers >= 1

    def test_buffer_minimisation_not_worse_than_heuristic(self, machine, sdot):
        most = most_pipeline_loop(sdot, machine, fast_options())
        sgi = pipeline_loop(sdot, machine)
        assert most.schedule.buffer_count() <= sgi.schedule.buffer_count()

    def test_functional_correctness_of_ilp_schedule(self, machine):
        loop = build_recurrence_chain(machine)
        res = most_pipeline_loop(loop, machine, fast_options())
        assert not res.fallback_used
        layout = DataLayout(res.loop, trip_count=25)
        seq = run_sequential(res.loop, layout, 25)
        pipe = run_pipelined(res.schedule, res.allocation, layout, 25)
        assert seq.matches(pipe)

    def test_oversized_loop_falls_back(self, machine):
        b = LoopBuilder("big", machine=machine)
        t = b.load("x", offset=0, stride=8)
        for k in range(30):
            t = b.fadd(t, b.invariant("c"))
        b.store("o", t, offset=0, stride=8)
        loop = b.build()
        res = most_pipeline_loop(loop, machine, fast_options(max_ops=10))
        assert res.success
        assert res.fallback_used

    def test_no_fallback_mode_reports_failure(self, machine):
        b = LoopBuilder("big2", machine=machine)
        t = b.load("x", offset=0, stride=8)
        for k in range(20):
            t = b.fadd(t, b.invariant("c"))
        b.store("o", t, offset=0, stride=8)
        loop = b.build()
        res = most_pipeline_loop(
            loop, machine, fast_options(max_ops=5, fallback=False)
        )
        assert not res.success
        assert res.schedule is None

    def test_integrated_formulation(self, machine):
        loop = build_first_diff(machine)
        res = most_pipeline_loop(loop, machine, fast_options(integrated=True))
        assert res.success and not res.fallback_used
        assert res.buffers is not None
        res.schedule.validate()

    def test_bnb_engine_with_priority_branching(self, machine):
        loop = build_first_diff(machine)
        res = most_pipeline_loop(
            loop,
            machine,
            fast_options(engine="bnb", time_limit=30),
        )
        assert res.success
        assert not res.fallback_used
        res.schedule.validate()

    def test_two_wide_machine(self):
        machine = two_wide()
        loop = build_sdot(machine)
        res = most_pipeline_loop(loop, machine, fast_options())
        assert res.success and not res.fallback_used
        res.schedule.validate()

    def test_stats_accumulate(self, machine, sdot):
        res = most_pipeline_loop(sdot, machine, fast_options())
        assert res.stats.solves >= 1
        assert res.stats.seconds > 0


class TestBranchOrders:
    """HiGHS ignores a branch order, so on ``scipy`` MOST asks the ILP once
    per II; our B&B engine gets one entry per SGI production order."""

    @pytest.mark.parametrize("engine", ["scipy", "bnb"])
    def test_an_unknown_answer_is_re_asked_only_under_another_order(
        self, machine, monkeypatch, engine
    ):
        from repro.core.priorities import production_orders
        from repro.most import walk
        from repro.portfolio.answer import UNKNOWN, BackendAnswer

        calls = []

        def unknown(encoded, **kwargs):
            calls.append((encoded.neutral.ii, kwargs["branch_priority"]))
            return BackendAnswer(backend="ilp", answer=UNKNOWN)

        monkeypatch.setattr(walk, "solve_ilp", unknown)
        loop = build_first_diff(machine)
        res = most_pipeline_loop(
            loop, machine, MostOptions(engine=engine, time_limit=60.0, fallback=False)
        )
        assert not res.success
        iis = sorted({ii for ii, _ in calls})
        assert iis and all(p.answer == UNKNOWN for p in res.probes)
        if engine == "scipy":
            assert calls == [(ii, None) for ii in iis]
        else:
            orders = list(production_orders(loop, machine).values())
            assert calls == [(ii, order) for ii in iis for order in orders]

    def test_scipy_computes_no_order_and_stage_two_gets_none(self, machine, monkeypatch):
        from repro.most import walk

        def no_orders(*args, **kwargs):
            raise AssertionError("production orders computed for HiGHS")

        priorities = []
        real = walk.solve_ilp

        def spy(encoded, **kwargs):
            priorities.append((kwargs["first_solution"], kwargs["branch_priority"]))
            return real(encoded, **kwargs)

        monkeypatch.setattr(walk, "production_orders", no_orders)
        monkeypatch.setattr(walk, "solve_ilp", spy)
        res = most_pipeline_loop(
            build_sdot(machine), machine, MostOptions(engine="scipy", time_limit=20.0)
        )
        assert res.success and not res.fallback_used and res.buffers is not None
        assert (False, None) in priorities  # stage 2 ran, unordered
        assert all(order is None for _, order in priorities)
