"""End-to-end soundness of the certified bounds against the pipeliners.

Three integration angles:

* every MOST-*proved-optimal* II must sit at or above the certified
  refined bound — an optimal II below a validated bound would mean a
  proof and an exhaustive search disagree, i.e. one of them is broken
  (replayed over the committed fuzz corpus and a seeded generator sweep);
* the driver's static-bound pruning is outcome-identical — the same IIs
  come out with the pruning on and off, only the search effort differs;
* a certified bound above the MaxII circuit breaker short-circuits the
  II search to a clean unschedulable result without invoking the B&B
  scheduler at all.
"""

from __future__ import annotations

import pytest

from repro.analyze.bounds import compute_bounds, schedulable_bound
from repro.core import min_ii, pipeline_loop
from repro.core.driver import PipelinerOptions
from repro.core.iisearch import search_ii
from repro.core.sched import SchedulingStats
from repro.fuzz.corpus import DEFAULT_CORPUS_DIR, load_entries
from repro.machine import r8000
from repro.most.scheduler import MostOptions, most_pipeline_loop
from repro.verify.boundcheck import check_achieved, check_bounds
from repro.workloads.generators import random_spec
from repro.workloads.recbound import recbound_kernels

pytestmark = pytest.mark.verify


@pytest.fixture(scope="module")
def machine():
    return r8000()


def _most_loops(machine):
    """Fuzz-corpus loops plus a seeded generator sweep, deduplicated."""
    loops = {}
    for entry in load_entries(DEFAULT_CORPUS_DIR):
        loop = entry.spec.build()
        loops.setdefault(loop.name, loop)
    for seed in range(12):
        loop = random_spec(seed=20260800 + seed).build()
        loops.setdefault(loop.name, loop)
    return list(loops.values())


class TestBoundsVsProvedOptimal:
    def test_refined_bound_never_exceeds_proved_optimal_ii(self, machine):
        """refined_bound <= II on every MOST-proved-optimal, spill-free loop."""
        proved = 0
        for loop in _most_loops(machine):
            bounds = compute_bounds(loop, machine)
            payload = bounds.to_dict()
            assert check_bounds(loop, machine, payload).ok, loop.name
            result = most_pipeline_loop(
                loop,
                machine,
                MostOptions(time_limit=2.0, engine="scipy"),
            )
            if not (result.success and result.optimal):
                continue
            if result.spill_rounds:  # a fallback that spilled
                continue
            proved += 1
            assert result.ii >= bounds.refined_bound, (
                f"{loop.name}: ILP proved II={result.ii} optimal but the "
                f"certified bound claims >= {bounds.refined_bound}"
            )
            report = check_achieved(
                payload, ii=result.ii, spill_free=True, source="most/optimal"
            )
            assert report.ok, f"{loop.name}: {report.formatted()}"
        # The corpus + sweep must actually exercise the property.
        assert proved >= 8


class TestPruningIsOutcomeIdentical:
    def test_same_iis_with_and_without_static_bounds(self, machine):
        """recbound, where the bounds actually prune: identical IIs, less work."""
        pruned_effort = baseline_effort = 0
        for loop in recbound_kernels(machine):
            on = pipeline_loop(
                loop, machine, PipelinerOptions(static_bounds=True)
            )
            off = pipeline_loop(
                loop, machine, PipelinerOptions(static_bounds=False)
            )
            assert on.success == off.success, loop.name
            assert on.ii == off.ii, loop.name
            assert on.spill_rounds == off.spill_rounds, loop.name
            pruned_effort += on.stats.placements
            baseline_effort += off.stats.placements
        # The corpus lifts on 5/6 loops; pruning must show up in effort.
        assert pruned_effort < baseline_effort / 2


class TestCircuitBreakerShortCircuit:
    def test_bound_above_max_ii_skips_the_search(self, machine):
        """search_ii: a certified bound past MaxII means zero B&B calls."""
        loop = recbound_kernels(machine)[0]
        mii = min_ii(loop, machine)
        stats = SchedulingStats()
        result = search_ii(
            loop,
            machine,
            priority=list(range(loop.n_ops)),
            min_ii=mii,
            max_ii=2 * mii,
            stats=stats,
            static_bound=2 * mii + 1,
        )
        assert result.ii is None and result.times is None
        assert result.attempted == []
        assert stats.attempts == 0 and stats.placements == 0

    def test_driver_reports_clean_unschedulable(self, machine, monkeypatch):
        """A bound past MaxII surfaces as an ordinary scheduling failure."""
        import repro.analyze.bounds as bounds_mod

        loop = recbound_kernels(machine)[0]

        def sky_high(loop, machine, cap=None, base=None):
            return (cap if cap is not None else 0) + 1

        monkeypatch.setattr(bounds_mod, "schedulable_bound", sky_high)
        result = pipeline_loop(loop, machine)
        assert not result.success
        assert result.schedule is None and result.allocation is None

    def test_fast_entry_matches_full_computation(self, machine):
        """schedulable_bound (driver entry) == compute_bounds' schedulable."""
        for loop in recbound_kernels(machine):
            mii = min_ii(loop, machine)
            fast = schedulable_bound(loop, machine, cap=2 * mii, base=mii)
            full = compute_bounds(loop, machine).schedulable_bound
            assert fast == full, loop.name
