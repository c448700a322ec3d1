"""The single-owner SolveBudget invariant under the backend race.

The portfolio shares one :class:`repro.most.walk.SolveBudget` across
all backends and all IIs of a loop.  Slices can never exceed what
remains, and a backend overshooting its granted slice beyond the
enforcement slack is an assertion failure — the regression this file
pins down.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time

import pytest

import repro

from repro.core import min_ii
from repro.most.scheduler import MostOptions, most_pipeline_loop
from repro.most.walk import SLICE_GRACE, SolveBudget, SolveStats, probe_ii
from repro.portfolio.answer import SAT, UNKNOWN, BackendAnswer
from repro.portfolio.driver import PortfolioOptions, portfolio_pipeline_loop
from repro.portfolio.formulation import build_modulo_formulation

from .conftest import build_daxpy, build_sdot


def _formulation(machine, loop):
    return build_modulo_formulation(loop, machine, min_ii(loop, machine))


class TestSliceDiscipline:
    def test_slice_never_exceeds_remaining(self):
        budget = SolveBudget(total=0.5)
        granted = budget.slice(parts=2, floor=0.05)
        assert granted <= 0.5
        time.sleep(0.2)
        assert budget.slice(parts=2, floor=0.05) <= budget.remaining() + 1e-9

    def test_floor_never_lifts_above_remaining(self):
        budget = SolveBudget(total=0.05)
        time.sleep(0.06)
        assert budget.expired()
        assert budget.slice(parts=2, floor=10.0) <= 0.0 + 1e-9

    def test_overspending_backend_trips_the_assertion(self, machine, daxpy):
        f = _formulation(machine, daxpy)
        budget = SolveBudget(total=1.0)
        granted_ceiling = 1.0 + SLICE_GRACE + 0.5 * 1.0

        def rogue(limit):
            # Claims to have burned far beyond any granted slice.
            return BackendAnswer(backend="rogue", answer=UNKNOWN,
                                 seconds=granted_ceiling + 5.0)

        with pytest.raises(AssertionError, match="budget slice"):
            probe_ii(f, [("rogue", rogue)], budget, SolveStats(), [])

    def test_compliant_backends_pass_the_assertion(self, machine, daxpy):
        f = _formulation(machine, daxpy)
        budget = SolveBudget(total=1.0)

        def polite(limit):
            assert limit <= 1.0 + 1e-9  # a slice is capped by the total
            return BackendAnswer(backend="polite", answer=UNKNOWN,
                                 seconds=min(limit, 0.01))

        probes = []
        verdict = probe_ii(f, [("polite", polite), ("polite2", polite)],
                           budget, SolveStats(), probes, cross_check=True)
        assert verdict is None  # two unknowns decide nothing
        assert len(probes) == 2

    def test_race_stops_once_budget_expires(self, machine, daxpy):
        f = _formulation(machine, daxpy)
        budget = SolveBudget(total=0.01)
        calls = []

        def slow(limit):
            calls.append(limit)
            time.sleep(0.02)  # exhausts the total before the next backend
            return BackendAnswer(backend="slow", answer=UNKNOWN,
                                 seconds=min(limit, 0.02))

        probe_ii(f, [("slow", slow), ("never", slow), ("never2", slow)],
                 budget, SolveStats(), [], cross_check=True)
        assert len(calls) < 3  # later entrants saw an expired budget

    def test_first_definitive_ends_round_without_cross_check(self, machine, daxpy):
        f = _formulation(machine, daxpy)
        budget = SolveBudget(total=5.0)
        calls = []

        def sat_backend(limit):
            calls.append("sat")
            times = {op: f.windows[op][0] for op in range(f.n_ops)}
            return BackendAnswer(backend="fake", answer=SAT, times=times)

        def never(limit):  # pragma: no cover - must not run
            calls.append("never")
            return BackendAnswer(backend="never", answer=UNKNOWN)

        probe_ii(f, [("fake", sat_backend), ("never", never)], budget,
                 SolveStats(), [], cross_check=False)
        assert calls == ["sat"]


class TestInvariantsSurviveOptimize:
    def test_overspending_backend_trips_under_python_O(self):
        # ``python -O`` strips assert statements; the budget invariants are
        # explicit checks and must still fire.
        script = textwrap.dedent("""
            import sys
            from repro.core import min_ii
            from repro.machine import r8000
            from repro.most.walk import BudgetOverrun, SolveBudget, SolveStats, probe_ii
            from repro.portfolio.answer import UNKNOWN, BackendAnswer
            from repro.portfolio.formulation import build_modulo_formulation
            from repro.workloads import livermore_kernel

            if not sys.flags.optimize:
                sys.exit("not running under -O")
            machine = r8000()
            loop = livermore_kernel(1, machine)
            f = build_modulo_formulation(loop, machine, min_ii(loop, machine))

            def rogue(limit):
                return BackendAnswer(backend="rogue", answer=UNKNOWN, seconds=1e6)

            try:
                probe_ii(f, [("rogue", rogue)], SolveBudget(total=1.0), SolveStats(), [])
            except BudgetOverrun as exc:
                print(exc)
                sys.exit(0)
            sys.exit("the overspending backend went unnoticed")
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "budget slice" in proc.stdout


class TestDriverLevelAccounting:
    def test_total_solver_seconds_bounded_by_budget(self, machine):
        loop = build_sdot(machine)
        options = PortfolioOptions(time_limit=2.0, cross_check=True,
                                   max_nodes=20_000)
        result = portfolio_pipeline_loop(loop, machine, options)
        # Sum of charged backend seconds can never exceed the per-loop
        # budget by more than the per-slice slack times the probe count.
        slack = len(result.probes) * (SLICE_GRACE + 2.0)
        assert result.stats.seconds <= 2.0 + slack
        assert result.stats.solves == len(
            [p for p in result.probes if p.backend != "screen"]
        )

    @pytest.mark.parametrize("driver", ["portfolio", "most"])
    def test_per_backend_seconds_sum_to_total(self, machine, driver):
        loop = build_daxpy(machine)
        if driver == "portfolio":
            options = PortfolioOptions(time_limit=2.0, cross_check=True)
            result = portfolio_pipeline_loop(loop, machine, options)
            backends = {"cp", "ilp"}
        else:
            # MOST's production orders are ILP probe entries, and its
            # stage-2 re-solve is charged to the same backend.
            result = most_pipeline_loop(loop, machine, MostOptions(time_limit=20.0))
            backends = {"ilp"}
            assert result.winning_backend == "ilp"
            assert result.probes
            assert all(p.witness_ok for p in result.probes if p.answer == SAT)
        per_backend = result.stats.backend_seconds()
        assert set(per_backend) == backends
        assert sum(per_backend.values()) == pytest.approx(result.stats.seconds)

    def test_most_never_returns_a_schedule_whose_witness_fails(self, machine, monkeypatch):
        import repro.most.walk as walk

        real = walk.solve_ilp

        def corrupt(*args, **kwargs):
            answer = real(*args, **kwargs)
            if answer.answer == SAT:
                # Every op in cycle 0: breaks the dependence arcs.
                answer.times = {op: 0 for op in answer.times}
            return answer

        monkeypatch.setattr(walk, "solve_ilp", corrupt)
        result = most_pipeline_loop(build_daxpy(machine), machine, MostOptions(time_limit=20.0))
        sat = [p for p in result.probes if p.answer == SAT]
        assert sat and all(p.witness_ok is False for p in sat)
        assert result.fallback_used and not result.optimal
        assert result.schedule.producer != "most/ilp"
        assert result.winning_backend == ""
