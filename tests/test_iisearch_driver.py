"""Tests for the two-phase II search, spilling, and the full driver."""

import pytest

from repro.core import (
    BnBConfig,
    PipelinerOptions,
    choose_spill_candidates,
    insert_spills,
    min_ii,
    order_by_name,
    pipeline_loop,
    search_ii,
)
from repro.core import spill
from repro.core.sched import SchedulingStats
from repro.core.spill import SPILL_TAG
from repro.exec.cells import resolve_loop
from repro.ir import LoopBuilder, OpClass
from repro.machine import r8000
from repro.rau import rau_pipeline_loop
from repro.regalloc import allocate, allocate_schedule, rename_kernel

from .conftest import (
    build_daxpy,
    build_divider,
    build_memory_heavy,
    build_recurrence_chain,
    build_sdot,
)

ALL_BUILDERS = [
    build_sdot,
    build_daxpy,
    build_divider,
    build_memory_heavy,
    build_recurrence_chain,
]


class TestIISearch:
    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_backoff_binary_matches_linear(self, machine, builder):
        loop = builder(machine)
        mii = min_ii(loop, machine)
        order = order_by_name(loop, machine, "FDMS")
        two_phase = search_ii(loop, machine, order, mii, 2 * mii)
        linear = search_ii(loop, machine, order, mii, 2 * mii, linear=True)
        assert two_phase.ii == linear.ii

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_simple_binary_matches_linear(self, machine, builder):
        loop = builder(machine)
        mii = min_ii(loop, machine)
        order = order_by_name(loop, machine, "FDMS")
        binary = search_ii(loop, machine, order, mii, 2 * mii, simple_binary=True)
        linear = search_ii(loop, machine, order, mii, 2 * mii, linear=True)
        assert binary.ii == linear.ii

    def test_stats_accumulated(self, machine, sdot):
        stats = SchedulingStats()
        mii = min_ii(sdot, machine)
        order = order_by_name(sdot, machine, "FDMS")
        search_ii(sdot, machine, order, mii, 2 * mii, stats=stats)
        assert stats.attempts >= 1
        assert stats.placements > 0
        assert stats.seconds > 0

    def test_unschedulable_returns_failure(self, machine):
        # Force failure with a zero-placement budget.
        loop = build_sdot(machine)
        mii = min_ii(loop, machine)
        order = order_by_name(loop, machine, "FDMS")
        result = search_ii(
            loop, machine, order, mii, 2 * mii, config=BnBConfig(max_placements=0)
        )
        assert not result.success


class TestSpilling:
    def _pressure_loop(self, machine, chains=12, spread=3):
        """Many long-lived values: FP pressure beyond a small register file."""
        b = LoopBuilder("pressure", machine=machine)
        vals = [b.load("x", offset=8 * k, stride=8 * chains) for k in range(chains)]
        acc = vals[0]
        for v in vals[1:]:
            acc = b.fadd(acc, v)
        for v in vals:
            acc = b.fadd(acc, b.fmul(v, v))
        b.store("o", acc, offset=0, stride=8)
        return b.build()

    def test_pressure_loop_pipelines_after_spilling(self, machine):
        loop = self._pressure_loop(machine)
        res = pipeline_loop(loop, machine)
        assert res.success
        assert res.spill_rounds >= 1
        assert res.spilled
        res.schedule.validate()
        assert res.allocation.registers_used <= machine.fp_regs + machine.int_regs

    def test_spill_candidates_ranked_by_ratio(self, machine):
        loop = self._pressure_loop(machine, chains=6)
        res = pipeline_loop(loop, machine)
        assert res.success
        alloc = res.allocation
        cands = choose_spill_candidates(alloc, res.loop, set(), 3, min_span=0)
        assert 0 < len(cands) <= 3
        by_value = {}
        for lr in alloc.renamed.ranges:
            if not (lr.is_invariant or lr.carried):
                by_value[lr.value] = max(by_value.get(lr.value, 0), lr.spill_ratio)
        ratios = [by_value[c] for c in cands]
        assert ratios == sorted(ratios, reverse=True)
        # Every non-candidate eligible value ranks at or below the chosen.
        assert all(by_value[c] >= 0 for c in cands)

    def test_insert_spills_well_formed(self, machine):
        loop = build_daxpy(machine)
        defs = loop.defs_of()
        # Spill the fmadd result.
        target = next(v for v, d in defs.items() if loop.ops[d].opclass is OpClass.FMADD)
        spilled = insert_spills(loop, machine, [target])
        spilled.check_well_formed()
        assert spilled.n_ops == loop.n_ops + 2  # one store + one restore
        tags = [op for op in spilled.ops if SPILL_TAG in op.tags]
        assert len(tags) == 2

    def test_spill_slot_dependences_present(self, machine):
        loop = build_daxpy(machine)
        defs = loop.defs_of()
        target = next(v for v, d in defs.items() if loop.ops[d].opclass is OpClass.FMADD)
        spilled = insert_spills(loop, machine, [target])
        store = next(op.index for op in spilled.ops if op.opcode == "store.spill")
        load = next(op.index for op in spilled.ops if op.opcode == "load.spill")
        assert any(a.src == store and a.dst == load for a in spilled.ddg.arcs)

    def test_spilling_unknown_value_rejected(self, machine):
        loop = build_daxpy(machine)
        with pytest.raises(ValueError):
            insert_spills(loop, machine, ["nope"])

    def test_driver_spills_under_pressure(self):
        machine = r8000()
        machine.fp_regs = 18  # reduced FP file: one forced-long value spills
        b = LoopBuilder("forced_span", machine=machine)
        a = b.load("a", offset=0, stride=8)
        t = b.load("c", offset=0, stride=8)
        k = b.invariant("k")
        t = b.fadd(t, a)
        for _ in range(10):
            t = b.fadd(t, k)
        b.store("o", b.fadd(t, a), offset=0, stride=8)
        loop = b.build()
        res = pipeline_loop(loop, machine)
        assert res.success
        assert res.spill_rounds >= 1
        assert res.spilled
        res.schedule.validate()
        assert res.allocation.success

    def test_both_heuristics_share_one_spill_limit(self, monkeypatch):
        """SGI needs two spill rounds on ``rb_reg_farm`` and Rau94 three on
        ``lk09_predict`` (1 + 2 + 4 values); with the one limit at 1 both
        stop after their first spilled value."""
        machine = r8000()
        sgi = pipeline_loop(resolve_loop("recbound:rb_reg_farm", machine), machine)
        rau = rau_pipeline_loop(resolve_loop("livermore:lk09_predict", machine), machine)
        assert (sgi.success, sgi.spill_rounds, len(sgi.spilled)) == (True, 2, 2)
        assert (rau.success, rau.spill_rounds, len(rau.spilled)) == (True, 1, 7)
        monkeypatch.setattr(spill, "MAX_SPILL_ROUNDS", 1)
        sgi = pipeline_loop(resolve_loop("recbound:rb_reg_farm", machine), machine)
        rau = rau_pipeline_loop(resolve_loop("livermore:lk09_predict", machine), machine)
        assert (sgi.success, sgi.spill_rounds, len(sgi.spilled)) == (False, 1, 1)
        assert (rau.success, rau.spill_rounds, len(rau.spilled)) == (False, 1, 1)


class TestDriver:
    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_pipeline_succeeds_and_validates(self, machine, builder):
        loop = builder(machine)
        res = pipeline_loop(loop, machine)
        assert res.success, loop.name
        res.schedule.validate()
        assert res.allocation.success
        assert res.ii >= res.min_ii

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_min_ii_achieved_on_simple_kernels(self, machine, builder):
        # These loop bodies are all schedulable at MinII on the R8000.
        loop = builder(machine)
        res = pipeline_loop(loop, machine)
        assert res.ii == res.min_ii, loop.name

    def test_single_order_restriction(self, machine, sdot):
        options = PipelinerOptions(orders=("HMS",))
        res = pipeline_loop(sdot, machine, options)
        assert res.success
        assert res.order_name == "HMS"

    def test_membank_disabled_still_works(self, machine, memheavy):
        options = PipelinerOptions(enable_membank=False)
        res = pipeline_loop(memheavy, machine, options)
        assert res.success
        res.schedule.validate()

    def test_linear_search_ablation(self, machine, sdot):
        options = PipelinerOptions(linear_ii_search=True)
        res = pipeline_loop(sdot, machine, options)
        assert res.success
        assert res.ii == res.min_ii

    def test_stats_collected(self, machine, sdot):
        res = pipeline_loop(sdot, machine)
        assert res.stats.attempts >= 1
        assert res.stats.seconds > 0

    def test_failure_result_shape(self, machine, monkeypatch):
        # An impossible loop: bound every knob to zero effort.
        monkeypatch.setattr(spill, "MAX_SPILL_ROUNDS", 0)
        loop = build_memory_heavy(machine)
        options = PipelinerOptions(bnb=BnBConfig(max_placements=0))
        res = pipeline_loop(loop, machine, options)
        assert not res.success
        assert res.schedule is None
        assert res.ii is None
