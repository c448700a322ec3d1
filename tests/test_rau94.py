"""Tests for the iterative modulo scheduler [Rau94]."""

import pytest

from repro.core import min_ii, pipeline_loop
from repro.core.sched import Schedule, SchedulingStats
from repro.ir import LoopBuilder
from repro.machine import r8000, two_wide
from repro.rau import height_r, iterative_modulo_schedule, rau_pipeline_loop
from repro.rau import scheduler as rau_scheduler
from repro.sim import DataLayout, run_pipelined, run_sequential
from repro.workloads import GeneratorConfig, random_loop

from .conftest import (
    build_daxpy,
    build_divider,
    build_first_diff,
    build_memory_heavy,
    build_recurrence_chain,
    build_sdot,
)

ALL_BUILDERS = [
    build_sdot,
    build_daxpy,
    build_first_diff,
    build_recurrence_chain,
    build_memory_heavy,
    build_divider,
]


class TestHeightR:
    def test_chain_heights_with_latencies(self, machine):
        loop = build_sdot(machine)
        h = height_r(loop, ii=4)
        # loads sit above fmul above fadd.
        assert h[0] > h[2] > 0
        assert h[2] > h[3] or h[3] <= 0

    def test_carried_arcs_discount_by_ii(self, machine):
        loop = build_sdot(machine)
        h4 = height_r(loop, ii=4)
        h8 = height_r(loop, ii=8)
        # Larger II shrinks (or keeps) carried contributions.
        assert h8[0] <= h4[0]


class TestIterativeScheduling:
    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_schedules_satisfy_all_constraints(self, machine, builder):
        loop = builder(machine)
        ii = min_ii(loop, machine)
        times = iterative_modulo_schedule(loop, machine, ii)
        assert times is not None, loop.name
        Schedule(loop=loop, machine=machine, ii=ii, times=times).validate()

    def test_infeasible_ii_fails(self, machine):
        loop = build_sdot(machine)
        # RecMII is 4; II=3 is impossible: the budget must run out.
        times = iterative_modulo_schedule(loop, machine, 3)
        if times is not None:
            with pytest.raises(ValueError):
                Schedule(loop=loop, machine=machine, ii=3, times=times).validate()

    def test_budget_limits_work(self, machine, monkeypatch):
        monkeypatch.setattr(rau_scheduler, "BUDGET_RATIO", 0.1)
        loop = build_memory_heavy(machine)
        stats = SchedulingStats()
        times = iterative_modulo_schedule(loop, machine, min_ii(loop, machine), stats)
        # With a fraction of a placement per op, scheduling must fail.
        assert times is None
        assert stats.placements <= max(1, int(0.1 * loop.n_ops)) + 1

    def test_eviction_reschedules_displaced_ops(self, machine):
        # A loop that does not fit greedily at MinII forces evictions; the
        # result must still place every op exactly once.
        b = LoopBuilder("evict", machine=machine)
        x = b.load("x", offset=0, stride=8)
        y = b.load("y", offset=0, stride=8)
        q = b.fdiv(x, y)
        t = b.fadd(q, b.invariant("c"))
        for _ in range(3):
            t = b.fadd(t, b.invariant("c"))
        b.store("o", t, offset=0, stride=8)
        loop = b.build()
        ii = min_ii(loop, machine)
        times = iterative_modulo_schedule(loop, machine, ii)
        if times is not None:
            assert sorted(times) == list(range(loop.n_ops))
            Schedule(loop=loop, machine=machine, ii=ii, times=times).validate()


class TestRauDriver:
    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_full_pipeline_succeeds(self, machine, builder):
        loop = builder(machine)
        res = rau_pipeline_loop(loop, machine)
        assert res.success, loop.name
        res.schedule.validate()
        assert res.allocation.success
        assert res.ii >= res.min_ii

    @pytest.mark.parametrize("builder", [build_sdot, build_daxpy, build_first_diff])
    def test_matches_sgi_on_simple_kernels(self, machine, builder):
        loop = builder(machine)
        rau = rau_pipeline_loop(loop, machine)
        sgi = pipeline_loop(loop, machine)
        assert rau.ii == sgi.ii

    def test_two_wide_machine(self):
        machine = two_wide()
        loop = build_sdot(machine)
        res = rau_pipeline_loop(loop, machine)
        assert res.success
        res.schedule.validate()

    @pytest.mark.parametrize("seed", range(6))
    def test_functional_correctness_on_random_loops(self, machine, seed):
        config = GeneratorConfig(
            n_compute=6 + seed, n_streams=2, n_recurrences=seed % 2, trip_count=15
        )
        loop = random_loop(seed, config, machine)
        res = rau_pipeline_loop(loop, machine)
        assert res.success
        layout = DataLayout(res.loop, trip_count=15, seed=seed)
        seq = run_sequential(res.loop, layout, 15)
        pipe = run_pipelined(res.schedule, res.allocation, layout, 15)
        assert seq.matches(pipe)

    def test_stats_recorded(self, machine, sdot):
        res = rau_pipeline_loop(sdot, machine)
        assert res.stats.attempts >= 1
        assert res.stats.seconds > 0
