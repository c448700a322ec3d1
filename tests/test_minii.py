"""Tests for ResMII / RecMII / MinII lower bounds."""

import pytest

from repro.core import max_ii, min_ii, rec_mii, res_mii
from repro.ir import LoopBuilder
from repro.machine import r8000, single_issue

from .conftest import build_memory_heavy, build_sdot


class TestResMII:
    def test_memory_bound_loop(self, machine):
        # 2 loads + 2 fp ops on a 2-port machine: mem demand 2/2 = 1,
        # fp demand 2/2 = 1, issue demand 4/4 = 1.
        loop = build_sdot(machine)
        assert res_mii(loop, machine) == 1

    def test_single_issue_counts_everything(self, tiny_machine):
        loop = build_sdot(tiny_machine)
        assert res_mii(loop, tiny_machine) == 4  # 4 ops / 1 issue

    def test_unpipelined_op_dominates(self, machine):
        b = LoopBuilder("div", machine=machine)
        x = b.load("x")
        b.store("o", b.fdiv(x, b.invariant("c")))
        loop = b.build()
        # FDIV holds the divider for 14 cycles.
        assert res_mii(loop, machine) == 14

    def test_many_streams(self, machine):
        loop = build_memory_heavy(machine, n_streams=6)
        # 6 loads on 2 ports -> at least 3.
        assert res_mii(loop, machine) >= 3


class TestRecMII:
    def test_no_arcs(self, machine):
        b = LoopBuilder("empty", machine=machine)
        b.load("x")
        loop = b.build()
        assert rec_mii(loop) == 1

    def test_self_recurrence_equals_latency(self, machine):
        loop = build_sdot(machine)
        # s = s + t with fadd latency 4, omega 1 -> RecMII = 4.
        assert rec_mii(loop) == 4

    def test_two_op_cycle(self, machine):
        b = LoopBuilder("rec", machine=machine)
        x = b.recurrence("x")
        d = b.fsub(b.load("y"), x.use())
        x.close(b.fmul(b.load("z"), d))
        loop = b.build()
        # fsub(4) + fmul(4) over distance 1 -> 8.
        assert rec_mii(loop) == 8

    def test_distance_two_recurrence_halves(self, machine):
        b = LoopBuilder("rec2", machine=machine)
        s = b.recurrence("s")
        s.close(b.fadd(b.load("x"), s.use(distance=2)))
        loop = b.build()
        # latency 4 over distance 2 -> ceil(4/2) = 2.
        assert rec_mii(loop) == 2

    def test_acyclic_chain_is_one(self, machine):
        b = LoopBuilder("chain", machine=machine)
        v = b.load("x")
        b.store("o", b.fadd(v, v))
        loop = b.build()
        assert rec_mii(loop) == 1


class TestMinMaxII:
    def test_min_ii_is_max_of_bounds(self, machine):
        loop = build_sdot(machine)
        assert min_ii(loop, machine) == max(res_mii(loop, machine), rec_mii(loop))

    def test_max_ii_doubles(self, machine):
        loop = build_sdot(machine)
        assert max_ii(loop, machine) == 2 * min_ii(loop, machine)

    def test_max_ii_is_every_consumers_ceiling(self, machine, monkeypatch):
        """SGI, Rau94, the optimal walk and the bound climb all stop at
        max_ii: with a ceiling below MinII none of them tries an II."""
        from repro.analyze.bounds import compute_bounds, schedulable_bound
        from repro.core import minii, pipeline_loop
        from repro.most.scheduler import MostOptions, most_pipeline_loop
        from repro.rau import rau_pipeline_loop

        loop = build_sdot(machine)
        mii = min_ii(loop, machine)
        monkeypatch.setattr(minii, "MAX_II_FACTOR", 0)
        assert max_ii(loop, machine) == 0
        sgi = pipeline_loop(loop, machine)
        assert not sgi.success and sgi.stats.attempts == 0
        rau = rau_pipeline_loop(loop, machine)
        assert not rau.success and rau.attempted == []
        most = most_pipeline_loop(
            loop, machine, MostOptions(engine="scipy", time_limit=10.0, fallback=False)
        )
        assert not most.success and most.stats.ii_attempts == 0 and most.probes == []
        assert schedulable_bound(loop, machine) == mii
        bounds = compute_bounds(loop, machine)
        assert bounds.cap == 0 and bounds.schedulable_bound == mii

    def test_min_ii_positive_for_trivial_loop(self, machine):
        b = LoopBuilder("one", machine=machine)
        b.load("x")
        loop = b.build()
        assert min_ii(loop, machine) == 1
