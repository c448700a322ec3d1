"""Tests for the §5 extension: the overhead-minimising ILP objective."""

import pytest

from repro.core import Schedule, min_ii, pipeline_loop
from repro.ilp import SolverOptions, Status, solve_milp
from repro.machine import r8000
from repro.most import MostOptions, build_formulation, most_pipeline_loop
from repro.pipeline import pipeline_overhead
from repro.portfolio import build_modulo_formulation
from repro.sim import DataLayout, run_pipelined, run_sequential

from .conftest import build_first_diff, build_sdot


def overhead_options(**kw):
    base = dict(time_limit=20.0, engine="scipy", objective="overhead")
    base.update(kw)
    return MostOptions(**base)


class TestOverheadFormulation:
    def test_stage_variable_bounds_all_ops(self, machine):
        loop = build_first_diff(machine)
        mii = min_ii(loop, machine)
        f = build_formulation(build_modulo_formulation(loop, machine, mii), "overhead")
        result = solve_milp(f.model, SolverOptions(engine="scipy", time_limit=20))
        assert result.status is Status.OPTIMAL
        times = f.decode_times(result)
        sched = Schedule(loop=loop, machine=machine, ii=mii, times=times)
        sched.validate()
        stage_var = next(v for v in f.model.variables if v.name == "stages")
        assert result.value(stage_var) == pytest.approx(sched.n_stages)

    def test_overhead_cutoff_binds(self, machine):
        loop = build_sdot(machine)
        mii = min_ii(loop, machine)
        f = build_formulation(
            build_modulo_formulation(loop, machine, mii), "overhead", cutoff=1
        )
        result = solve_milp(f.model, SolverOptions(engine="scipy", time_limit=20))
        # One stage cannot hold the 10+ cycle critical path at II=4.
        assert result.status is Status.INFEASIBLE

    def test_minimises_stage_count(self, machine):
        loop = build_first_diff(machine)
        mii = min_ii(loop, machine)
        plain = build_formulation(build_modulo_formulation(loop, machine, mii))
        r_plain = solve_milp(plain.model, SolverOptions(engine="scipy", time_limit=20))
        s_plain = Schedule(
            loop=loop, machine=machine, ii=mii, times=plain.decode_times(r_plain)
        )
        f = build_formulation(build_modulo_formulation(loop, machine, mii), "overhead")
        r = solve_milp(f.model, SolverOptions(engine="scipy", time_limit=20))
        s = Schedule(loop=loop, machine=machine, ii=mii, times=f.decode_times(r))
        assert s.n_stages <= s_plain.n_stages


class TestOverheadDriver:
    def test_driver_objective_switch(self, machine, sdot):
        res = most_pipeline_loop(sdot, machine, overhead_options())
        assert res.success and not res.fallback_used
        res.schedule.validate()

    def test_never_more_overhead_than_buffer_objective(self, machine):
        for builder in (build_sdot, build_first_diff):
            loop = builder(machine)
            buf = most_pipeline_loop(
                loop, machine,
                MostOptions(time_limit=20, engine="scipy"),
            )
            ovh = most_pipeline_loop(loop, machine, overhead_options())
            if buf.ii != ovh.ii:
                continue
            o_buf = pipeline_overhead(buf.schedule, buf.allocation, machine).total
            o_ovh = pipeline_overhead(ovh.schedule, ovh.allocation, machine).total
            assert o_ovh <= o_buf, loop.name

    def test_functional_correctness(self, machine):
        loop = build_first_diff(machine)
        res = most_pipeline_loop(loop, machine, overhead_options())
        assert not res.fallback_used
        layout = DataLayout(res.loop, trip_count=20)
        assert run_sequential(res.loop, layout, 20).matches(
            run_pipelined(res.schedule, res.allocation, layout, 20)
        )

    def test_overhead_schedule_not_slower_at_short_trips(self, machine):
        # The point of the extension: short-trip performance (Section 4.6).
        loop = build_sdot(machine)
        buf = most_pipeline_loop(
            loop, machine,
            MostOptions(time_limit=20, engine="scipy"),
        )
        ovh = most_pipeline_loop(loop, machine, overhead_options())
        if buf.ii != ovh.ii:
            pytest.skip("different IIs; overhead comparison not like-for-like")
        from repro.sim import simulate_pipelined

        layout_b = DataLayout(buf.loop, trip_count=8)
        layout_o = DataLayout(ovh.loop, trip_count=8)
        cb = simulate_pipelined(
            buf.schedule, layout_b, machine, trips=8,
            overhead=pipeline_overhead(buf.schedule, buf.allocation, machine),
        ).cycles
        co = simulate_pipelined(
            ovh.schedule, layout_o, machine, trips=8,
            overhead=pipeline_overhead(ovh.schedule, ovh.allocation, machine),
        ).cycles
        assert co <= cb + 1
