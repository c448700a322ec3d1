"""The portfolio driver and its exec/fuzz/bench plumbing."""

from __future__ import annotations

import pytest

from repro.exec.cells import SCHEDULERS, Cell, CellResult
from repro.exec.runner import execute_cell
from repro.fuzz.oracle import check_results, spec_cells
from repro.obs import recording
from repro.portfolio.driver import PortfolioOptions, portfolio_pipeline_loop


class TestDriver:
    def test_schedules_at_min_ii_and_proves_optimality(self, machine, daxpy):
        result = portfolio_pipeline_loop(
            daxpy, machine, PortfolioOptions(time_limit=5.0)
        )
        assert result.success and not result.fallback_used
        assert result.ii == result.min_ii
        assert result.optimal
        assert result.winning_backend == "cp"  # first in the default race order
        assert result.schedule.producer == "portfolio/cp"
        assert result.allocation is not None and result.allocation.success

    def test_oversized_loop_takes_the_fallback(self, machine, sdot):
        options = PortfolioOptions(time_limit=5.0, max_ops=1)
        result = portfolio_pipeline_loop(sdot, machine, options)
        assert result.fallback_used
        assert result.success
        assert result.schedule.producer.startswith("sgi/")  # the heuristic's own result
        assert result.order_name and result.original is sdot
        assert result.probes == []  # no backend ever ran

    def test_no_fallback_reports_failure_honestly(self, machine, sdot):
        options = PortfolioOptions(time_limit=5.0, max_ops=1, fallback=False)
        result = portfolio_pipeline_loop(sdot, machine, options)
        assert not result.success
        assert result.schedule is None
        assert not result.fallback_used

    def test_stage_two_re_solves_a_cp_witness(self, machine, sdot):
        # One driver, one stage 2: a portfolio asked for buffers re-solves
        # the II its CP backend won, with the ILP, from CP's times.
        plain = portfolio_pipeline_loop(
            sdot, machine, PortfolioOptions(time_limit=20.0, backends="cp")
        )
        options = PortfolioOptions(time_limit=20.0, backends="cp", objective="buffers")
        with recording() as rec:
            result = portfolio_pipeline_loop(sdot, machine, options)
            spans = [event["name"] for event in rec.events]
        assert result.winning_backend == "cp" and plain.winning_backend == "cp"
        assert result.schedule.producer == "portfolio/cp"
        assert result.ii == plain.ii and plain.buffers is None
        assert "portfolio.secondary" in spans
        assert result.stats.per_backend["ilp"]["solves"] == 1  # the stage-2 solve
        assert result.buffers is not None
        assert result.buffers == result.schedule.buffer_count()
        assert result.buffers <= plain.schedule.buffer_count()

    def test_options_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown PortfolioOptions"):
            PortfolioOptions.from_dict({"time_limit": 1.0, "typo_key": 1})

    def test_options_from_dict_validates_backends_eagerly(self):
        with pytest.raises(ValueError, match="unknown portfolio backends"):
            PortfolioOptions.from_dict({"backends": "gurobi"})
        with pytest.raises(ValueError, match="at least one backend"):
            PortfolioOptions.from_dict({"backends": ""})

    def test_effort_counters_recorded(self, machine, daxpy):
        with recording() as rec:
            portfolio_pipeline_loop(
                daxpy, machine, PortfolioOptions(time_limit=5.0, cross_check=True)
            )
            counters = dict(rec.counters)
        assert counters.get("portfolio.cp.sat", 0) >= 1
        assert counters.get("portfolio.ilp.sat", 0) >= 1
        assert counters.get("portfolio.cp.seconds", 0) > 0
        assert counters.get("portfolio.ii_attempts", 0) >= 1
        assert "portfolio.disagreements" not in counters


class TestExecIntegration:
    def test_portfolio_is_a_registered_scheduler(self):
        assert "portfolio" in SCHEDULERS

    def test_execute_cell_round_trip(self):
        cell = Cell.make(
            "livermore:lk01_hydro",
            "portfolio",
            {"time_limit": 5.0, "cross_check": True, "max_nodes": 20_000},
            seed=0, timeout=30.0, simulate=False, oracle=True,
        )
        payload = execute_cell(cell.to_dict(), in_worker=False)
        res = CellResult.from_dict(payload)
        assert res.success
        assert res.ii == res.min_ii
        assert res.optimal
        assert set(res.backend_seconds) == {"cp", "ilp"}
        assert res.backend_probes
        assert res.verify_errors == [] and res.funcsim_ok is True
        # Round-trip again: the backend payload survives serialisation.
        again = CellResult.from_dict(res.to_dict())
        assert again.backend_seconds == res.backend_seconds
        assert again.backend_probes == res.backend_probes

    def test_bad_options_surface_as_cell_error(self):
        cell = Cell.make(
            "livermore:lk01_hydro", "portfolio", {"backends": "nope"},
            seed=0, timeout=30.0, simulate=False,
        )
        payload = execute_cell(cell.to_dict(), in_worker=False)
        res = CellResult.from_dict(payload)
        assert not res.success
        assert res.error is not None and "unknown portfolio backends" in res.error

    def test_cache_key_distinguishes_backend_sets(self):
        from repro.exec.hashing import cell_key

        def key(scheduler, options_json):
            return cell_key(Cell("livermore:lk01_hydro", scheduler, options_json,
                                 simulate=False, timeout=30.0))

        a = key("portfolio", '{"backends":"cp,ilp"}')
        b = key("portfolio", '{"backends":"cp"}')
        c = key("most", "{}")
        assert len({a, b, c}) == 3

    def test_bench_options_carry_portfolio_knobs(self):
        from repro.exec.bench import BenchOptions

        options = BenchOptions(quick=True)
        assert "portfolio" in options.schedulers
        knobs = options.scheduler_options("portfolio")
        assert knobs["cross_check"] is True  # the agreement trail in BENCH
        assert knobs["backends"] == "cp,ilp"


class TestFuzzAgreementOracle:
    def _result(self, probes, scheduler="portfolio"):
        return CellResult(
            loop="l", scheduler=scheduler, success=True,
            ii=4, min_ii=4, backend_probes=probes,
        )

    def test_contradiction_is_a_violation(self):
        probes = [
            {"ii": 4, "backend": "cp", "answer": "unsat"},
            {"ii": 4, "backend": "ilp", "answer": "sat", "witness_ok": True},
        ]
        violations = check_results({"portfolio": self._result(probes)})
        agreement = [v for v in violations if v.kind == "agreement"]
        assert len(agreement) == 1
        assert "ilp answered sat" in agreement[0].detail
        assert "cp answered unsat" in agreement[0].detail

    def test_bad_witness_is_a_violation(self):
        probes = [
            {"ii": 4, "backend": "cp", "answer": "sat", "witness_ok": False,
             "detail": "op 2 outside window"},
        ]
        violations = check_results({"portfolio": self._result(probes)})
        agreement = [v for v in violations if v.kind == "agreement"]
        assert len(agreement) == 1
        assert "failed the independent check" in agreement[0].detail

    def test_unknown_agrees_with_everything(self):
        probes = [
            {"ii": 4, "backend": "cp", "answer": "unknown"},
            {"ii": 4, "backend": "ilp", "answer": "unsat"},
            {"ii": 5, "backend": "cp", "answer": "sat", "witness_ok": True},
        ]
        violations = check_results({"portfolio": self._result(probes)})
        assert [v for v in violations if v.kind == "agreement"] == []

    def test_spec_cells_configure_portfolio_for_cross_check(self):
        from repro.workloads import GeneratorConfig, random_spec

        spec = random_spec(3, GeneratorConfig(n_compute=2, n_streams=1))
        cells = spec_cells(spec, schedulers=("sgi", "portfolio"))
        by_sched = {c.scheduler: c for c in cells}
        assert set(by_sched) == {"sgi", "portfolio"}
        assert by_sched["portfolio"].options == {
            "backends": "cp,ilp", "cross_check": True, "fallback": False,
            "time_limit": 1.0, "max_nodes": 2000, "max_ops": 64,
        }
        assert by_sched["sgi"].options == {}

    def test_end_to_end_clean_loop_has_no_agreement_findings(self):
        from repro.fuzz.oracle import evaluate_spec
        from repro.workloads import GeneratorConfig, random_spec

        spec = random_spec(11, GeneratorConfig(n_compute=3, n_streams=1,
                                               n_stores=1))
        verdict = evaluate_spec(spec, schedulers=("portfolio",), timeout=30.0)
        res = verdict.results["portfolio"]
        assert res.backend_probes  # cross-check produced a trail
        assert [v for v in verdict.violations if v.kind == "agreement"] == []
