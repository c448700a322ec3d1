"""The cross-backend agreement suite (the differential heart of the PR).

Every Livermore and recbound loop is probed at MinII-1, MinII and (via
the portfolio driver's cross-check trail) the achieved II.  Soundness
demands: two definitive answers at one II never contradict, no backend
ever claims sat below MinII, and every sat witness survives the
independent :func:`repro.portfolio.formulation.check_witness`.  The SMT
backend joins the matrix automatically when z3 is installed.
"""

from __future__ import annotations

import pytest

from repro.core import min_ii
from repro.machine import r8000
from repro.portfolio import build_modulo_formulation, check_witness
from repro.portfolio.answer import SAT, UNSAT, ProbeRecord, probe_disagreements
from repro.portfolio.cp import solve_cp
from repro.portfolio.driver import PortfolioOptions, portfolio_pipeline_loop
from repro.most.formulation import build_formulation
from repro.portfolio.ilp_backend import solve_ilp
from repro.portfolio.smt import smt_available, solve_smt
from repro.workloads import livermore_kernels, recbound_kernels

MACHINE = r8000()
ALL_LOOPS = livermore_kernels(MACHINE) + recbound_kernels(MACHINE)

# Modest, deterministic budgets: unknown answers are acceptable (they
# agree with everything); contradictions never are.
CP_BUDGET = dict(max_nodes=50_000, time_limit=2.0)
ILP_BUDGET = dict(max_nodes=20_000, time_limit=2.0)


def _probe(loop, ii):
    """All available backends' answers on one (loop, II) formulation."""
    f = build_modulo_formulation(loop, MACHINE, ii)
    if f.infeasible:
        # The shared screen is itself a proof; nothing to race.
        return f, [ProbeRecord(ii=ii, backend="screen", answer=UNSAT,
                               detail=f.infeasible_reason)]
    probes = []
    answers = [solve_cp(f, **CP_BUDGET), solve_ilp(build_formulation(f), **ILP_BUDGET)]
    if smt_available():
        answers.append(solve_smt(f, time_limit=2.0))
    for answer in answers:
        witness_ok = None
        if answer.answer == SAT:
            witness_ok = not check_witness(f, answer.times or {})
        probes.append(ProbeRecord(
            ii=ii, backend=answer.backend, answer=answer.answer,
            seconds=answer.seconds, nodes=answer.nodes, witness_ok=witness_ok,
        ))
    return f, probes


@pytest.mark.parametrize("loop", ALL_LOOPS, ids=[l.name for l in ALL_LOOPS])
class TestAgreementAtBoundaryIIs:
    def test_min_ii_and_below(self, loop):
        mii = min_ii(loop, MACHINE)
        all_probes = []
        for ii in [mii - 1, mii] if mii > 1 else [mii]:
            _, probes = _probe(loop, ii)
            all_probes.extend(probes)
            if ii < mii:
                # MinII is a certified lower bound: sat below it is a bug
                # in a backend (or in MinII itself).
                assert not any(p.answer == SAT for p in probes), (
                    f"{loop.name}: sat below MinII={mii}"
                )
        assert probe_disagreements(all_probes) == []
        for probe in all_probes:
            if probe.answer == SAT:
                assert probe.witness_ok is True


class TestAgreementThroughDriver:
    """The driver's own cross-check trail over the full corpus."""

    @pytest.mark.parametrize(
        "loop",
        [l for l in ALL_LOOPS if l.n_ops <= 20],
        ids=[l.name for l in ALL_LOOPS if l.n_ops <= 20],
    )
    def test_cross_check_trail_is_contradiction_free(self, loop):
        options = PortfolioOptions(
            time_limit=5.0, cross_check=True, max_nodes=20_000, fallback=True
        )
        result = portfolio_pipeline_loop(loop, MACHINE, options)
        assert probe_disagreements(result.probes) == []
        for probe in result.probes:
            if probe.answer == SAT:
                assert probe.witness_ok is True
        if result.success and not result.fallback_used:
            # The winning witness decoded into a schedule that the
            # session-wide verify hook (conftest) already cross-checked.
            assert result.ii >= result.min_ii
            assert result.schedule.producer.partition("/")[2] in ("cp", "ilp", "smt")

    def test_achieved_ii_probes_are_sat_and_checked(self):
        loop = livermore_kernels(MACHINE)[0]  # lk01_hydro
        options = PortfolioOptions(time_limit=5.0, cross_check=True,
                                   max_nodes=20_000)
        result = portfolio_pipeline_loop(loop, MACHINE, options)
        assert result.success and not result.fallback_used
        achieved = [p for p in result.probes if p.ii == result.ii]
        assert any(p.answer == SAT and p.witness_ok for p in achieved)
        # cross_check mode queried every backend at the achieved II.
        assert len({p.backend for p in achieved}) >= 2

    def test_optimality_means_every_smaller_ii_refuted(self):
        loop = livermore_kernels(MACHINE)[0]
        options = PortfolioOptions(time_limit=5.0, cross_check=True,
                                   max_nodes=20_000)
        result = portfolio_pipeline_loop(loop, MACHINE, options)
        if result.optimal:
            for ii in range(result.min_ii, result.ii):
                at_ii = [p for p in result.probes if p.ii == ii]
                assert any(p.answer == UNSAT for p in at_ii)
