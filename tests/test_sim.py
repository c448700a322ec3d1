"""Tests for data layout, banked memory model, and performance simulation."""

import pytest

from repro.baseline import body_latency, list_schedule
from repro.core import pipeline_loop
from repro.ir import LoopBuilder
from repro.machine import r8000
from repro.pipeline import pipeline_overhead
from repro.sim import (
    BankedMemory,
    DataLayout,
    simulate_pipelined,
    simulate_sequential_body,
)

from .conftest import build_daxpy, build_sdot


class TestDataLayout:
    def test_regions_do_not_overlap(self, machine):
        b = LoopBuilder("t", machine=machine, trip_count=200)
        x = b.load("x", offset=0, stride=8)
        y = b.load("y", offset=-8, stride=8)
        b.store("z", b.fadd(x, y), offset=0, stride=8)
        loop = b.build()
        layout = DataLayout(loop, trip_count=200)
        mem_indices = [op.index for op in loop.memory_ops()]
        addr_sets = {
            idx: {layout.address(idx, n) for n in range(200)} for idx in mem_indices
        }
        x_load, y_load, z_store = mem_indices
        assert not (addr_sets[x_load] & addr_sets[z_store])
        assert not (addr_sets[y_load] & addr_sets[z_store])

    def test_known_parity_respected(self, machine):
        b = LoopBuilder("t", machine=machine)
        b.load("even", offset=0, stride=8)
        b.set_parity("even", 0)
        loop = b.build()
        layout = DataLayout(loop, trip_count=10)
        assert ((layout.bases["even"] >> 3) & 1) == 0
        assert layout.bank(0, 0) == 0
        assert layout.bank(0, 1) == 1  # next double word: opposite bank

    def test_indirect_addresses_deterministic_and_aligned(self, machine):
        b = LoopBuilder("t", machine=machine)
        b.load("p", offset=None)
        loop = b.build()
        l1 = DataLayout(loop, trip_count=50, seed=3)
        l2 = DataLayout(loop, trip_count=50, seed=3)
        addrs1 = [l1.address(0, n) for n in range(50)]
        addrs2 = [l2.address(0, n) for n in range(50)]
        assert addrs1 == addrs2
        assert all(a % 8 == 0 for a in addrs1)
        assert len(set(addrs1)) > 10  # actually scattered

    def test_seed_changes_unknown_parities(self, machine):
        loop = build_sdot(machine)
        parities = {
            seed: (DataLayout(loop, trip_count=10, seed=seed).bases["x"] >> 3) & 1
            for seed in range(16)
        }
        assert set(parities.values()) == {0, 1}

    def test_negative_offsets_stay_in_region(self, machine):
        b = LoopBuilder("t", machine=machine)
        b.load("y", offset=-16, stride=8)
        loop = b.build()
        layout = DataLayout(loop, trip_count=10)
        assert layout.address(0, 0) > 0


class TestBankedMemory:
    def test_opposite_banks_no_stall(self):
        mem = BankedMemory()
        assert mem.step([0, 1]) == 0
        assert mem.step([0, 1]) == 0

    def test_single_conflict_absorbed_by_bellows(self):
        mem = BankedMemory()
        assert mem.step([0, 0]) == 0  # one queued, no stall yet

    def test_sustained_conflicts_stall_every_cycle(self):
        # The worst case of Section 2.9: two same-bank refs every cycle ->
        # one stall per cycle, half speed.
        mem = BankedMemory()
        stalls = sum(mem.step([0, 0]) for _ in range(100))
        assert stalls == 99  # first conflict absorbed, then one per cycle

    def test_queue_drains_during_idle_cycles(self):
        mem = BankedMemory()
        mem.step([0, 0])
        assert mem.step([]) == 0
        assert mem.step([0, 0]) == 0  # bellows was empty again

    def test_queued_ref_competes_with_arrivals(self):
        mem = BankedMemory()
        mem.step([0, 0])  # bank0 queued
        # Next cycle: queued bank-0 ref takes bank 0; new bank-0 pair
        # conflicts with it.
        stalls = mem.step([0, 0])
        assert stalls >= 1


class TestPerformanceSimulation:
    def test_pipelined_cycles_formula_no_stalls(self, machine):
        loop = build_daxpy(machine)
        res = pipeline_loop(loop, machine)
        layout = DataLayout(loop, trip_count=100)
        rep = simulate_pipelined(res.schedule, layout, machine, trips=100)
        assert rep.cycles == res.schedule.span + 99 * res.schedule.ii + rep.stall_cycles

    def test_overhead_added(self, machine):
        loop = build_daxpy(machine)
        res = pipeline_loop(loop, machine)
        layout = DataLayout(loop, trip_count=10)
        ov = pipeline_overhead(res.schedule, res.allocation, machine)
        with_ov = simulate_pipelined(res.schedule, layout, machine, trips=10, overhead=ov)
        without = simulate_pipelined(res.schedule, layout, machine, trips=10)
        assert with_ov.cycles == without.cycles + ov.total

    def test_pipelined_beats_baseline_on_long_trips(self, machine):
        loop = build_sdot(machine)
        res = pipeline_loop(loop, machine)
        layout = DataLayout(loop, trip_count=1000)
        pipe = simulate_pipelined(res.schedule, layout, machine, trips=1000)
        base = simulate_sequential_body(list_schedule(loop, machine), layout, machine, trips=1000)
        assert base.cycles > 2 * pipe.cycles

    def test_baseline_cycles_scale_with_trips(self, machine):
        loop = build_daxpy(machine)
        sched = list_schedule(loop, machine)
        layout = DataLayout(loop, trip_count=200)
        r100 = simulate_sequential_body(sched, layout, machine, trips=100)
        r200 = simulate_sequential_body(sched, layout, machine, trips=200)
        assert r200.cycles >= 2 * r100.cycles - r100.stall_cycles

    def test_memory_bound_same_bank_schedule_stalls(self, machine):
        # The worst case of Section 2.9: two references every cycle, both
        # to the same bank.  Four even-aligned double streams, pinned so
        # each cycle carries two references of the *same* iteration: banks
        # agree every cycle and the bellows saturates.
        from repro.core import Schedule

        b = LoopBuilder("conflict", machine=machine, trip_count=500)
        for k in range(4):
            b.load(f"s{k}", offset=0, stride=8)
            b.set_parity(f"s{k}", 0)
        loop = b.build()
        sched = Schedule(
            loop=loop, machine=machine, ii=2, times={0: 0, 1: 0, 2: 1, 3: 1}
        )
        sched.validate()
        layout = DataLayout(loop, trip_count=500)
        rep = simulate_pipelined(sched, layout, machine, trips=500)
        # Roughly one stall every two cycles: half-speed territory.
        assert rep.stall_cycles > 300

    def test_staggered_same_parity_streams_absorbed(self, machine):
        # The same streams with the pairs one stage apart hit *opposite*
        # banks at run time (iteration parities differ): no stalls.  This
        # is why only memory-bound loops with aligned pairs show the
        # effect (Section 4.3).
        from repro.core import Schedule

        b = LoopBuilder("staggered", machine=machine, trip_count=500)
        for k in range(4):
            b.load(f"s{k}", offset=0, stride=8)
            b.set_parity(f"s{k}", 0)
        loop = b.build()
        sched = Schedule(
            loop=loop, machine=machine, ii=2, times={0: 0, 1: 2, 2: 1, 3: 3}
        )
        sched.validate()
        layout = DataLayout(loop, trip_count=500)
        rep = simulate_pipelined(sched, layout, machine, trips=500)
        assert rep.stall_cycles == 0


    def test_baseline_queue_drains_through_idle_cycles(self, machine):
        # Two same-bank loads share cycle 0 of every iteration: the second
        # waits in the bellows queue, which drains on the idle cycles that
        # follow.  The next iteration's pair finds it empty, so the loop
        # never stalls.  (Stepping only cycles with arrivals left the
        # queued reference waiting until the next pair: one stall per
        # iteration after the first.)
        b = LoopBuilder("pair", machine=machine, trip_count=10)
        for base in ("a", "b"):
            b.load(base, offset=0, stride=16)  # a whole bank period: bank stays 0
            b.set_parity(base, 0)
        loop = b.build()
        sched = list_schedule(loop, machine)
        assert sched.time(0) == sched.time(1) == 0
        layout = DataLayout(loop, trip_count=10)
        rep = simulate_sequential_body(sched, layout, machine, trips=10)
        assert rep.stall_cycles == 0
        assert rep.cycles == 10 * 2  # issue cycle + loop control, back to back


class TestBaselineListScheduler:
    def test_valid_schedule(self, machine, daxpy):
        sched = list_schedule(daxpy, machine)
        sched.validate()

    def test_respects_latency_chain(self, machine, sdot):
        sched = list_schedule(sdot, machine)
        # fmul must wait for loads (latency 6), fadd for fmul (latency 4).
        assert sched.time(2) >= sched.time(0) + 6
        assert sched.time(3) >= sched.time(2) + 4

    def test_body_latency_includes_final_latency(self, machine, sdot):
        sched = list_schedule(sdot, machine)
        assert body_latency(sched, machine) >= sched.time(3) + machine.latency(sdot.ops[3].opclass)

    def test_resource_limits_respected(self, machine):
        b = LoopBuilder("many", machine=machine)
        vals = [b.load("x", offset=8 * k, stride=64) for k in range(8)]
        t = vals[0]
        for v in vals[1:]:
            t = b.fadd(t, v)
        b.store("o", t)
        loop = b.build()
        sched = list_schedule(loop, machine)
        sched.validate()  # at most 2 loads per cycle enforced by validate
