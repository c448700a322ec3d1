"""Tests for machine descriptions and modulo reservation tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import DepKind, MemRef, OpClass, Operation
from repro.machine import (
    ModuloReservationTable,
    ReservationTable,
    ResourceUse,
    r8000,
    single_issue,
    two_wide,
)
from repro.machine.resources import LoweredTable, blocked_slots, dilate


def _rotr(mask: int, k: int, ii: int) -> int:
    return ((mask >> k) | (mask << (ii - k))) & ((1 << ii) - 1)


class TestReservationTable:
    def test_simple_is_fully_pipelined(self):
        t = ReservationTable.simple("issue", "fp")
        assert t.is_fully_pipelined
        assert t.span == 1
        assert t.totals() == {"issue": 1, "fp": 1}

    def test_blocking_table(self):
        t = ReservationTable.blocking(["issue"], "fpdiv", 14)
        assert not t.is_fully_pipelined
        assert t.span == 14
        assert t.totals()["fpdiv"] == 14

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            ResourceUse(-1, "fp")


class TestModuloReservationTable:
    def test_place_and_conflict(self):
        mrt = ModuloReservationTable(4, {"mem": 2})
        t = ReservationTable.simple("mem")
        mrt.place(t, 0)
        mrt.place(t, 4)  # same slot, second port
        assert not mrt.fits(t, 8)  # slot 0 is full
        assert mrt.fits(t, 1)

    def test_remove_restores_capacity(self):
        mrt = ModuloReservationTable(4, {"mem": 1})
        t = ReservationTable.simple("mem")
        mrt.place(t, 2)
        assert not mrt.fits(t, 6)
        mrt.remove(t, 2)
        assert mrt.fits(t, 6)

    def test_negative_cycles_wrap(self):
        mrt = ModuloReservationTable(4, {"mem": 1})
        t = ReservationTable.simple("mem")
        mrt.place(t, -1)  # slot 3
        assert not mrt.fits(t, 3)

    def test_blocking_op_wraps_around(self):
        # An op holding a unit for 5 cycles at II=4 conflicts with itself
        # across iterations: it cannot be placed at all.
        mrt = ModuloReservationTable(4, {"div": 1, "issue": 1})
        t = ReservationTable(
            [ResourceUse(0, "issue")] + [ResourceUse(i, "div") for i in range(5)]
        )
        assert not mrt.fits(t, 0)

    def test_unknown_resource_raises(self):
        mrt = ModuloReservationTable(2, {"mem": 1})
        with pytest.raises(KeyError):
            mrt.fits(ReservationTable.simple("fp"), 0)

    def test_remove_unplaced_raises(self):
        mrt = ModuloReservationTable(2, {"mem": 1})
        with pytest.raises(ValueError):
            mrt.remove(ReservationTable.simple("mem"), 0)

    def test_copy_is_independent(self):
        mrt = ModuloReservationTable(2, {"mem": 1})
        t = ReservationTable.simple("mem")
        clone = mrt.copy()
        mrt.place(t, 0)
        assert clone.fits(t, 0)

    def test_invalid_ii_rejected(self):
        with pytest.raises(ValueError):
            ModuloReservationTable(0, {})


class TestDilatedRuns:
    """A held resource's blocked mask: runs dilated by doubling equal the
    per-offset OR of rotated "slot full" masks."""

    @given(st.data())
    @settings(max_examples=300)
    def test_dilate_is_the_or_of_every_rotation(self, data):
        ii = data.draw(st.integers(1, 70))
        mask = data.draw(st.integers(0, (1 << ii) - 1))
        length = data.draw(st.integers(1, ii))
        expected = 0
        for k in range(length):
            expected |= _rotr(mask, k, ii)
        assert dilate(mask, length, ii) == expected

    @given(st.data())
    @settings(max_examples=300)
    def test_run_form_equals_the_per_offset_or(self, data):
        ii = data.draw(st.integers(1, 40))
        avail = (1, 2, 3)
        full = [data.draw(st.integers(0, (1 << ii) - 1)) for _ in avail]
        slots = set()
        for _ in range(data.draw(st.integers(1, 4))):
            rid = data.draw(st.integers(0, len(avail) - 1))
            length = data.draw(st.integers(1, ii))
            # Half the runs end at slot II-1, where the rotation wraps.
            start = data.draw(st.sampled_from([ii - length]) | st.integers(0, ii - length))
            slots.update((off, rid) for off in range(start, start + length))
        lt = LoweredTable(tuple(sorted((off, rid, 1) for off, rid in slots)), avail)
        assert lt.mask_runs is not None
        assert sorted(
            (off + k, rid) for off, rid, length in lt.mask_runs for k in range(length)
        ) == sorted(slots)
        expected = 0
        for off, rid in slots:
            expected |= _rotr(full[rid], off, ii)
        assert blocked_slots(lt, ii, full, [0] * (len(avail) * ii), avail) == expected

    def test_a_divide_is_one_run(self):
        machine = r8000()
        mrt = ModuloReservationTable(30, machine.availability)
        lt = mrt.lower(machine.table(OpClass.FSQRT))
        fpdiv = mrt.index.ids["fpdiv"]
        assert [run for run in lt.mask_runs if run[1] == fpdiv] == [(0, fpdiv, 20)]


class TestR8000:
    def test_issue_width(self):
        m = r8000()
        assert m.availability["issue"] == 4
        assert m.availability["mem"] == 2
        assert m.availability["fp"] == 2

    def test_divide_unpipelined(self):
        m = r8000()
        assert not m.is_fully_pipelined(OpClass.FDIV)
        assert m.is_fully_pipelined(OpClass.FMUL)

    def test_banked_memory(self):
        m = r8000()
        assert m.has_banked_memory
        assert m.memory_banks == 2
        assert m.bellows_depth == 1

    def test_dep_latency_flow_uses_producer(self):
        m = r8000()
        load = Operation(index=0, opcode="load", opclass=OpClass.LOAD, dests=("v",),
                         mem=MemRef(base="a"))
        assert m.dep_latency(DepKind.FLOW, load) == m.latency(OpClass.LOAD)

    def test_dep_latency_memory(self):
        m = r8000()
        store = Operation(index=0, opcode="store", opclass=OpClass.STORE, srcs=("v",),
                          mem=MemRef(base="a", is_store=True))
        assert m.dep_latency(DepKind.MEM, store) == m.store_to_load_latency

    def test_all_opclasses_covered(self):
        m = r8000()
        for oc in OpClass:
            assert m.latency(oc) >= 1
            assert m.table(oc).totals()


class TestOtherMachines:
    def test_single_issue_serialises_everything(self):
        m = single_issue()
        assert m.availability == {"issue": 1}
        assert not m.has_banked_memory

    def test_two_wide(self):
        m = two_wide()
        assert m.availability["issue"] == 2

    def test_missing_table_raises(self):
        m = single_issue()
        with pytest.raises(KeyError):
            m.table("bogus")  # type: ignore[arg-type]
