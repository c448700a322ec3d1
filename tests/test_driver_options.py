"""Driver option combinations and bank-repair behaviour."""

import pytest

from repro.core import BnBConfig, PipelinerOptions, minii, pipeline_loop
from repro.core.driver import _residual_risk
from repro.core.membank import BankPairer
from repro.core.priorities import production_orders
from repro.ir import LoopBuilder
from repro.machine import r8000

from .conftest import build_memory_heavy, build_sdot


class TestPairingModes:
    def test_bank_repair_labels_producer(self, machine):
        # A loop with guaranteed pairable streams: repair should engage.
        b = LoopBuilder("pairable", machine=machine, trip_count=200)
        acc = b.recurrence("acc")
        t = None
        for k in range(4):
            v = b.load("arr", offset=8 * k, stride=32)
            t = v if t is None else b.fadd(t, v)
        acc.close(b.fadd(t, acc.use(distance=2)))
        loop = b.build()
        res = pipeline_loop(loop, machine, PipelinerOptions(enable_membank=True))
        assert res.success
        assert res.schedule.producer.startswith("sgi/")

    def test_residual_risk_zero_for_opposite_pairs(self, machine):
        b = LoopBuilder("pairable", machine=machine)
        v0 = b.load("arr", offset=0, stride=16)
        v1 = b.load("arr", offset=8, stride=16)
        b.store("o", b.fadd(v0, v1), offset=0, stride=8)
        loop = b.build()
        res = pipeline_loop(loop, machine)
        order = production_orders(loop, machine)[res.order_name]
        pairer = BankPairer(res.loop, res.ii, order)
        risk = _residual_risk(res.schedule, pairer)
        assert risk >= 0  # well-defined; zero when fully paired

    def test_membank_never_hurts_ii(self, machine):
        for builder in (build_sdot, build_memory_heavy):
            loop = builder(machine)
            on = pipeline_loop(loop, machine, PipelinerOptions(enable_membank=True))
            off = pipeline_loop(loop, machine, PipelinerOptions(enable_membank=False))
            assert on.ii == off.ii, loop.name


class TestBudgets:
    def test_tiny_backtrack_budget_still_handles_simple_loops(self, machine, sdot):
        res = pipeline_loop(
            sdot, machine, PipelinerOptions(bnb=BnBConfig(max_backtracks=1))
        )
        assert res.success

    def test_order_subset(self, machine, sdot):
        res = pipeline_loop(sdot, machine, PipelinerOptions(orders=("RHMS", "HMS")))
        assert res.success
        assert res.order_name in ("RHMS", "HMS")

    def test_ii_cap_factor(self, machine, monkeypatch):
        # With a cap factor of 1, only MinII may be tried.
        monkeypatch.setattr(minii, "MAX_II_FACTOR", 1)
        loop = build_sdot(machine)
        res = pipeline_loop(loop, machine)
        assert res.success
        assert res.ii == res.min_ii
