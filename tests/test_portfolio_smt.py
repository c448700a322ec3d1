"""The optional-dependency seam around the Z3 SMT backend.

Two layers: seam tests that run *everywhere* (requesting smt without z3
is a recorded skip, never a crash), and the backend's own behaviour
tests, skip-marked via ``importorskip`` so a z3-less environment reports
them as skipped — visibly absent, not silently missing.  The CI matrix
runs this file both with and without ``z3-solver`` installed.
"""

from __future__ import annotations

import pytest

from repro.core import min_ii
from repro.machine import r8000, single_issue
from repro.portfolio import build_modulo_formulation, check_witness, smt_available
from repro.portfolio.answer import SAT, UNSAT, probe_disagreements
from repro.portfolio.driver import (
    PortfolioOptions,
    available_backend_names,
    portfolio_pipeline_loop,
)

from .conftest import build_daxpy, build_recurrence_chain
from .test_portfolio_backends import build_two_loads


class TestSeamWithoutAssumingZ3:
    """These must pass on every machine, z3 or not."""

    def test_smt_available_is_a_bool(self):
        assert isinstance(smt_available(), bool)

    def test_available_backends_reflect_the_seam(self):
        names = available_backend_names()
        assert names[:2] == ("cp", "ilp")
        assert ("smt" in names) == smt_available()

    def test_requesting_smt_is_a_clean_skip_or_a_run(self, machine, daxpy):
        options = PortfolioOptions(time_limit=2.0, backends="cp,ilp,smt")
        result = portfolio_pipeline_loop(daxpy, machine, options)
        assert result.success
        if smt_available():
            assert result.skipped_backends == ()
        else:
            assert result.skipped_backends == ("smt",)
            assert all(p.backend != "smt" for p in result.probes)

    def test_smt_only_without_z3_falls_back(self, machine, daxpy):
        if smt_available():
            pytest.skip("z3 installed: smt-only actually runs")
        options = PortfolioOptions(time_limit=2.0, backends="smt")
        result = portfolio_pipeline_loop(daxpy, machine, options)
        assert result.skipped_backends == ("smt",)
        assert result.fallback_used  # no usable backend: heuristic rescued it
        assert result.success

    def test_unknown_backend_is_an_error_not_a_skip(self):
        with pytest.raises(ValueError, match="unknown portfolio backends"):
            PortfolioOptions(backends="cp,cplex").backend_names()


class TestSmtBackend:
    """Behaviour of the backend itself; skipped without z3."""

    @pytest.fixture(autouse=True)
    def _require_z3(self):
        pytest.importorskip("z3")

    def test_sat_witness_passes_independent_check(self, machine, daxpy):
        from repro.portfolio.smt import solve_smt

        ii = min_ii(daxpy, machine)
        f = build_modulo_formulation(daxpy, machine, ii)
        answer = solve_smt(f, time_limit=10.0)
        assert answer.answer == SAT
        assert check_witness(f, answer.times) == []

    def test_unsat_below_res_mii(self):
        from repro.portfolio.smt import solve_smt

        machine = single_issue()
        loop = build_two_loads(machine)
        f = build_modulo_formulation(loop, machine, 1)
        if f.infeasible:
            pytest.skip("screened before solve")
        answer = solve_smt(f, time_limit=10.0)
        assert answer.answer == UNSAT

    def test_infeasible_formulation_short_circuits(self, machine):
        from repro.portfolio.smt import solve_smt

        loop = build_daxpy(machine)
        f = build_modulo_formulation(loop, machine, 1, stages=1)
        answer = solve_smt(f)
        assert answer.answer == UNSAT

    def test_agrees_with_cp_on_small_kernels(self, machine):
        from repro.portfolio.cp import solve_cp
        from repro.portfolio.smt import solve_smt

        for builder in (build_daxpy, build_recurrence_chain):
            loop = builder(machine)
            mii = min_ii(loop, machine)
            for ii in (max(1, mii - 1), mii):
                f = build_modulo_formulation(loop, machine, ii)
                if f.infeasible:
                    continue
                cp = solve_cp(f, max_nodes=50_000, time_limit=2.0)
                smt = solve_smt(f, time_limit=2.0)
                if cp.definitive and smt.definitive:
                    assert cp.answer == smt.answer, (loop.name, ii)

    def test_three_way_portfolio_race(self, machine, daxpy):
        options = PortfolioOptions(time_limit=5.0, backends="cp,ilp,smt",
                                   cross_check=True)
        result = portfolio_pipeline_loop(daxpy, machine, options)
        assert result.success
        assert probe_disagreements(result.probes) == []
        backends_seen = {p.backend for p in result.probes if p.ii == result.ii}
        assert backends_seen == {"cp", "ilp", "smt"}
