"""Each verifier catches a seeded violation Schedule.validate() misses.

Every test here corrupts one artifact of a correctly pipelined loop in a
way the legacy in-schedule validation cannot see — a DDG lie, a dropped
op, a miscoloured range, a tampered listing, a moved base address — and
asserts the matching ``repro.verify`` rule fires.
"""

from __future__ import annotations

import re

import pytest

from repro.core import Schedule, min_ii, pipeline_loop
from repro.exec.cells import resolve_loop
from repro.ir import LoopBuilder
from repro.machine import r8000, single_issue
from repro.pipeline.emit import emit_pipelined_code
from repro.sim import DataLayout
from repro.verify import (
    RULES,
    Severity,
    VerificationError,
    check_allocation,
    check_banks,
    check_emitted,
    check_schedule,
    lint_ddg,
    verify_all,
)

from .conftest import build_daxpy, build_sdot

pytestmark = pytest.mark.verify


@pytest.fixture
def pipelined(machine):
    """A clean daxpy pipeline: loop, schedule, allocation, emitted code."""
    res = pipeline_loop(build_daxpy(machine), machine)
    assert res.success
    emitted = emit_pipelined_code(res.schedule, res.allocation)
    return res, emitted


def build_with_dead_load(machine):
    """daxpy plus one dead load: an op with no dependence arcs at all."""
    b = LoopBuilder("daxpy_dead", machine=machine, trip_count=100)
    a = b.invariant("a")
    x = b.load("x", offset=0, stride=8)
    y = b.load("y", offset=0, stride=8)
    r = b.fmadd(a, x, y)
    b.store("y", r, offset=0, stride=8)
    b.load("z", offset=0, stride=8)  # dead: no consumer, no arcs
    return b.build()


class TestCleanArtifactsPass:
    def test_verify_all_clean(self, pipelined, machine):
        res, emitted = pipelined
        report = verify_all(
            res.loop,
            schedule=res.schedule,
            allocation=res.allocation,
            emitted=emitted,
            machine=machine,
        )
        assert report.ok, report.formatted()

    def test_rules_catalogue_is_complete(self):
        families = {"DDG", "SCHED", "REG", "EMIT", "BANK", "BOUND"}
        assert {re.match(r"[A-Z]+", r).group() for r in RULES} == families


class TestDDGLint:
    def test_negative_latency_missed_by_validate(self, pipelined):
        """DDG002: a corrupt arc *loosens* t(b)-t(a) >= lat - II*omega, so
        the schedule still satisfies it and validate() stays silent."""
        res, _ = pipelined
        loop = res.loop
        arc = loop.ddg.arcs[0]
        object.__setattr__(arc, "latency", -3)
        res.schedule.validate()  # legacy blind spot: constraint got weaker
        report = lint_ddg(loop)
        assert "DDG002" in report.rules_hit()
        assert not report.ok

    def test_dangling_edge(self, machine):
        loop = build_daxpy(machine)
        arc = loop.ddg.arcs[0]
        object.__setattr__(arc, "dst", 99)
        assert "DDG001" in lint_ddg(loop).rules_hit()

    def test_self_dependence_omega_zero(self, machine):
        loop = build_sdot(machine)
        self_arcs = [a for a in loop.ddg.arcs if a.src == a.dst]
        assert self_arcs  # the recurrence
        object.__setattr__(self_arcs[0], "omega", 0)
        report = lint_ddg(loop)
        assert "DDG004" in report.rules_hit()


class TestScheduleChecker:
    def test_dropped_op_caught_by_validate(self, machine):
        """SCHED003: an arc-less op vanishing from the schedule is caught by
        the checker-backed validation, which walks the full op range."""
        loop = build_with_dead_load(machine)
        res = pipeline_loop(loop, machine)
        assert res.success
        sched = res.schedule
        dead = next(
            op.index
            for op in loop.ops
            if not any(a.src == op.index or a.dst == op.index for a in loop.ddg.arcs)
        )
        del sched.times[dead]
        report = check_schedule(loop, machine, sched.ii, sched.times)
        assert "SCHED003" in report.rules_hit()
        with pytest.raises(VerificationError):
            sched.validate()

    def test_resource_overflow_reports_all_contributors(self, tiny_machine):
        loop = build_daxpy(tiny_machine)
        res = pipeline_loop(loop, tiny_machine)
        assert res.success
        times = dict(res.schedule.times)
        a, b = loop.ops[0].index, loop.ops[1].index  # the two loads
        times[a] = times[b]  # single-issue: two ops in one modulo slot
        report = check_schedule(loop, tiny_machine, res.schedule.ii, times)
        overflow = report.by_rule("SCHED002")
        assert overflow
        assert {a, b} <= set(overflow[0].ops)  # every contributor named

    def test_ii_below_min_ii_audit(self, tiny_machine):
        loop = build_daxpy(tiny_machine)
        mii = min_ii(loop, tiny_machine)
        assert mii > 1
        res = pipeline_loop(loop, tiny_machine)
        report = check_schedule(loop, tiny_machine, mii - 1, res.schedule.times)
        assert "SCHED004" in report.rules_hit()


class TestAllocationChecker:
    def test_shared_register_missed_by_validate(self, pipelined, machine):
        """REG002: validate() never looks at the colouring at all."""
        res, _ = pipelined
        alloc = res.allocation
        assert len(set(alloc.fp_assignment.values())) > 1
        for rng in alloc.fp_assignment:
            alloc.fp_assignment[rng] = 0  # everything into one register
        res.schedule.validate()  # schedule-level checks cannot notice
        report = check_allocation(
            res.loop, machine, res.schedule.ii, res.schedule.times, alloc
        )
        assert "REG002" in report.rules_hit()

    def test_register_outside_file(self, pipelined, machine):
        res, _ = pipelined
        alloc = res.allocation
        rng = next(iter(alloc.fp_assignment))
        alloc.fp_assignment[rng] = machine.fp_regs + 5
        report = check_allocation(
            res.loop, machine, res.schedule.ii, res.schedule.times, alloc
        )
        assert "REG003" in report.rules_hit()

    def test_missing_range(self, pipelined, machine):
        res, _ = pipelined
        alloc = res.allocation
        alloc.fp_assignment.pop(next(iter(alloc.fp_assignment)))
        report = check_allocation(
            res.loop, machine, res.schedule.ii, res.schedule.times, alloc
        )
        assert "REG001" in report.rules_hit()

    def test_kmin_too_small(self, pipelined, machine):
        res, _ = pipelined
        alloc = res.allocation
        if alloc.kmin == 1:
            pytest.skip("daxpy needs kmin > 1 for this seeding")
        alloc.kmin = 1
        report = check_allocation(
            res.loop, machine, res.schedule.ii, res.schedule.times, alloc
        )
        assert "REG004" in report.rules_hit()


class TestEmittedCodeChecker:
    def test_phantom_operand_missed_by_validate(self, pipelined, machine):
        """EMIT001: a source register nothing ever writes.  The schedule and
        the allocation are untouched, so validate() has nothing to object
        to — only the listing is wrong."""
        res, emitted = pipelined
        used = {
            int(m.group(1))
            for line in emitted.prologue + emitted.kernel + emitted.epilogue
            for m in re.finditer(r"\$f(\d+)", line)
        }
        phantom = next(n for n in range(machine.fp_regs) if n not in used)
        for i, line in enumerate(emitted.kernel):
            m = re.search(r"<- (\$f\d+)", line)
            if m:
                emitted.kernel[i] = line.replace(m.group(1), f"$f{phantom}", 1)
                break
        else:
            pytest.fail("no kernel instruction with a register source")
        res.schedule.validate()  # untampered schedule: still clean
        report = check_emitted(
            res.loop, res.schedule.ii, res.schedule.times, res.allocation, emitted
        )
        assert "EMIT001" in report.rules_hit()

    def test_dropped_kernel_instruction(self, pipelined):
        res, emitted = pipelined
        idx = next(
            i for i, line in enumerate(emitted.kernel) if "; op" in line
        )
        del emitted.kernel[idx]
        report = check_emitted(
            res.loop, res.schedule.ii, res.schedule.times, res.allocation, emitted
        )
        assert "EMIT003" in report.rules_hit()

    def test_incomplete_drain(self, pipelined):
        res, emitted = pipelined
        kept = []
        dropped = False
        for line in emitted.epilogue:
            if not dropped and "; op" in line:
                dropped = True
                continue
            kept.append(line)
        if not dropped:
            pytest.skip("schedule has no drain instructions")
        emitted.epilogue[:] = kept
        report = check_emitted(
            res.loop, res.schedule.ii, res.schedule.times, res.allocation, emitted
        )
        drains = [d for d in report.by_rule("EMIT003") if "drain" in d.message]
        assert drains

    @pytest.mark.parametrize("section", ["prologue", "kernel"])
    def test_instance_at_iteration_minus_one(self, machine, section):
        """An ``iter{i-1}`` line is an instance, not a label: it is counted
        (nine prologue lines of op 0 are nine instances), it moves no cycle,
        and it is rejected for the cycle its iteration implies."""
        res = pipeline_loop(resolve_loop("livermore:lk01_hydro", machine), machine)
        emitted = emit_pipelined_code(res.schedule, res.allocation)
        lines = getattr(emitted, section)
        index = next(i for i, line in enumerate(lines) if "; op" in line)
        op, iteration = map(int, re.search(r"; op(\d+) iter\{i([+-]\d+)\}", lines[index]).groups())
        lines[index] = lines[index].replace(f"iter{{i{iteration:+d}}}", "iter{i-1}")
        report = check_emitted(
            res.loop, res.schedule.ii, res.schedule.times, res.allocation, emitted
        )
        t, ii = res.schedule.time(op), res.schedule.ii
        assert [d.message for d in report.diagnostics] == [
            f"op {op} iteration -1 is listed at {section} cycle {t + iteration * ii}; "
            f"the schedule issues it at cycle {t - ii}"
        ]
        assert not report.ok


class TestBankChecker:
    def test_moved_base_missed_by_validate(self, machine):
        """BANK003/BANK001: the layout breaks a declared parity promise.
        No schedule even exists — nothing for validate() to check."""
        b = LoopBuilder("paired", machine=machine, trip_count=64)
        b.set_parity("x", 0)
        b.set_parity("y", 1)
        xv = b.load("x", offset=0, stride=16)
        yv = b.load("y", offset=0, stride=16)
        b.store("out", b.fadd(xv, yv), offset=0, stride=8)
        loop = b.build()

        clean = check_banks(loop)
        assert clean.ok, clean.formatted()

        layout = DataLayout(loop, trip_count=16)
        layout.bases["x"] += 8  # violate the promised parity
        report = check_banks(loop, layouts=[layout])
        assert "BANK003" in report.rules_hit()
        assert "BANK001" in report.rules_hit()
        assert not report.ok

    def test_risky_pair_warning(self, machine):
        b = LoopBuilder("unknown_banks", machine=machine, trip_count=64)
        xv = b.load("x", offset=0, stride=8)
        yv = b.load("y", offset=0, stride=8)
        b.store("out", b.fadd(xv, yv), offset=0, stride=8)
        loop = b.build()
        # Force both loads into the same modulo slot.
        times = {0: 0, 1: 4, 2: 8, 3: 14}
        report = check_banks(loop, ii=4, times=times)
        risky = report.by_rule("BANK002")
        assert risky
        assert all(d.severity is Severity.WARNING for d in risky)
