"""Property tests: randomized corruptions never escape the verifiers.

Hypothesis picks *which* artifact element to corrupt; the properties assert
the matching rule fires for every choice — not just the single seeded case
the example-based tests cover.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import pipeline_loop
from repro.machine import r8000, single_issue
from repro.verify import check_allocation, check_schedule, lint_ddg
from repro.verify.regcheck import _lifetimes

from .conftest import build_daxpy, build_memory_heavy, build_sdot

pytestmark = pytest.mark.verify

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _pipeline(build, machine):
    res = pipeline_loop(build(machine), machine)
    assert res.success
    return res


class TestCorruptedOmega:
    @given(arc_index=st.integers(min_value=0, max_value=200), bad=st.integers(-8, -1))
    @_SETTINGS
    def test_negative_omega_always_flagged(self, arc_index, bad):
        loop = build_sdot(r8000())
        arc = loop.ddg.arcs[arc_index % len(loop.ddg.arcs)]
        object.__setattr__(arc, "omega", bad)
        report = lint_ddg(loop)
        assert "DDG003" in report.rules_hit()


class TestCorruptedSchedule:
    @given(pick=st.integers(min_value=0, max_value=30))
    @_SETTINGS
    def test_slot_collision_always_flagged(self, pick):
        """On a single-issue machine any two ops sharing a modulo slot
        oversubscribe the issue resource, whichever pair is chosen."""
        machine = single_issue()
        res = _pipeline(build_daxpy, machine)
        loop, sched = res.loop, res.schedule
        ops = sorted(sched.times)
        a = ops[pick % len(ops)]
        b = ops[(pick // len(ops) + 1 + a) % len(ops)]
        if a == b:
            b = ops[(ops.index(a) + 1) % len(ops)]
        times = dict(sched.times)
        times[a] = times[b]
        report = check_schedule(loop, machine, sched.ii, times, audit_min_ii=False)
        assert "SCHED002" in report.rules_hit()

    @given(delta=st.integers(min_value=1, max_value=6), pick=st.integers(0, 30))
    @_SETTINGS
    def test_pulled_forward_consumer_always_flagged(self, delta, pick):
        """Moving any consumer earlier than its producer's latency allows
        breaks the dependence constraint (SCHED001)."""
        machine = r8000()
        res = _pipeline(build_sdot, machine)
        loop, sched = res.loop, res.schedule
        arcs = [a for a in loop.ddg.arcs if a.src != a.dst and a.omega == 0]
        arc = arcs[pick % len(arcs)]
        times = dict(sched.times)
        times[arc.dst] = times[arc.src] + arc.latency - delta
        report = check_schedule(loop, machine, sched.ii, times, audit_min_ii=False)
        assert "SCHED001" in report.rules_hit()


class TestCorruptedColoring:
    @given(pick=st.integers(min_value=0, max_value=60))
    @_SETTINGS
    def test_interfering_reassignment_always_flagged(self, pick):
        """Reassigning any live range to the colour of a range it overlaps
        is caught, whichever overlapping pair hypothesis chooses.

        (Swapping two registers wholesale is *legal* renaming — the
        property must introduce a genuine interference, not a swap.)
        """
        machine = r8000()
        res = _pipeline(build_memory_heavy, machine)
        loop, sched, alloc = res.loop, res.schedule, res.allocation
        ii, times = sched.ii, sched.times
        period = alloc.kmin * ii

        # Rebuild intervals the same way the checker does, then enumerate
        # genuinely overlapping, differently coloured pairs.
        lifetimes = _lifetimes(loop, ii, times)
        defs = {d: op.index for op in loop.ops for d in op.dests}
        spans = {}
        for rng, color in alloc.fp_assignment.items():
            value = rng.rsplit("@", 1)[0]
            if rng.endswith("@in"):
                spans[rng] = (0, period)
            elif value in lifetimes:
                r = int(rng.rsplit("@", 1)[1])
                spans[rng] = (
                    (times[defs[value]] + r * ii) % period,
                    lifetimes[value],
                )

        def overlap(x, y):
            (sx, lx), (sy, ly) = spans[x], spans[y]
            if lx >= period or ly >= period:
                return True
            return ((sy - sx) % period) < lx or ((sx - sy) % period) < ly

        names = sorted(spans)
        pairs = [
            (x, y)
            for i, x in enumerate(names)
            for y in names[i + 1 :]
            if alloc.fp_assignment[x] != alloc.fp_assignment[y] and overlap(x, y)
        ]
        assert pairs, "kernel has no overlapping fp ranges to corrupt"
        victim, donor = pairs[pick % len(pairs)]
        corrupted = dict(alloc.fp_assignment)
        corrupted[victim] = corrupted[donor]

        class _Tampered:
            success = True
            kmin = alloc.kmin
            fp_assignment = corrupted
            int_assignment = alloc.int_assignment

        report = check_allocation(loop, machine, ii, times, _Tampered())
        assert "REG002" in report.rules_hit()
