"""Tests for repro.obs.explain — II-gap attribution.

Seeded on empirically mapped Livermore loops (r8000 machine model):

* ``lk13_pic2d`` — RecMII 11 vs ResMII 4: a recurrence-bound MinII with a
  multi-op critical circuit.
* ``lk01_hydro`` — ResMII 2 vs RecMII 1 with the memory ports at 100%
  utilization: a resource-bound MinII.
* ``lk08_adi`` — MinII 11 from tight 2-FPU packing, but every II-11
  schedule leaves live ranges uncolorable: the classic register-pressure
  II bump, for both the SGI driver and Rau94.
* ``lk18_hydro2d`` — MinII 7; MOST's ILP and the portfolio's CP both
  answer sat at II 7, but that schedule does not colour, so both walks
  move on to II 8.

Every gap above MinII is attributed from the trail the driver wrote
(``IIAttempt``s, ``ProbeRecord``s); nothing is solved again.
"""

from __future__ import annotations

import sys

import pytest

from repro.exec.cells import Cell, corpus_cells, resolve_loop
from repro.exec.engine import ExecEngine
from repro.exec.runner import execute_cell
from repro.machine.descriptions import r8000
from repro.schedulers import get_scheduler
from repro.obs.explain import (
    AT_BOUND_CLASSES,
    BINDING_CLASSES,
    IIExplanation,
    bottleneck_resource,
    critical_circuit,
    explain_result,
    format_explanations,
    minii_profile,
    resource_utilization,
)


@pytest.fixture(scope="module")
def machine():
    return r8000()


@pytest.fixture(scope="module")
def lk18_most(machine):
    """``lk18_hydro2d × most`` under MOST's defaults with a 20 s budget,
    solved once for every test that reads its trail."""
    loop = resolve_loop("livermore:lk18_hydro2d", machine)
    most = get_scheduler("most")
    return most.run(loop, machine, most.options_from_dict({"time_limit": 20.0}))


def explain_cell(key, scheduler, options=None, **fields) -> IIExplanation:
    """Run one (loop × scheduler) exec cell with ``explain=True``, as
    ``repro explain`` does, and return its attribution."""
    cell = Cell.make(
        key, scheduler, options, simulate=False, explain=True, **fields
    )
    result = execute_cell(cell.to_dict(), in_worker=False)
    assert result["error"] is None, result["error"]
    return IIExplanation.from_dict(result["explanation"])


class TestMinIIProfile:
    def test_recurrence_bound_loop(self, machine):
        loop = resolve_loop("livermore:lk13_pic2d", machine)
        profile = minii_profile(loop, machine)
        assert profile.side == "recurrence"
        assert profile.rec_mii > profile.res_mii
        assert profile.min_ii == profile.rec_mii
        # The binding circuit is real: ops with positive self-distance at
        # RecMII - 1, each carrying its opcode for the report.
        assert profile.circuit
        indices = [entry["index"] for entry in profile.circuit]
        assert indices == critical_circuit(loop, profile.rec_mii)
        for entry in profile.circuit:
            assert loop.ops[entry["index"]].opcode == entry["opcode"]

    def test_resource_bound_loop(self, machine):
        loop = resolve_loop("livermore:lk01_hydro", machine)
        profile = minii_profile(loop, machine)
        assert profile.side == "resource"
        assert profile.res_mii >= profile.rec_mii
        # No binding recurrence => no critical circuit.
        assert profile.circuit == []
        util = resource_utilization(loop, machine, profile.res_mii)
        assert bottleneck_resource(loop, machine, profile.res_mii) == "mem"
        assert util["mem"] == pytest.approx(1.0)

    def test_utilization_shrinks_with_ii(self, machine):
        loop = resolve_loop("livermore:lk01_hydro", machine)
        at_2 = resource_utilization(loop, machine, 2)
        at_4 = resource_utilization(loop, machine, 4)
        for resource, value in at_4.items():
            assert value == pytest.approx(at_2[resource] / 2)
        assert resource_utilization(loop, machine, 0) == {}


class TestBindingClassification:
    def test_recurrence_bound_cells(self):
        for scheduler in ("sgi", "rau"):
            explanation = explain_cell("livermore:lk13_pic2d", scheduler)
            assert explanation.success
            assert explanation.binding == "recurrence"
            assert explanation.gap == 0
            assert explanation.ii == explanation.rec_mii
            assert explanation.critical_circuit
            assert "circuit" in explanation.detail

    def test_resource_bound_cell(self):
        explanation = explain_cell("livermore:lk01_hydro", "sgi")
        assert explanation.binding == "resource"
        assert explanation.gap == 0
        assert explanation.bottleneck == "mem"
        assert "'mem'" in explanation.detail
        assert explanation.utilization["mem"] == pytest.approx(1.0)

    def test_register_pressure_ii_bump(self):
        # lk08: every schedule at MinII=11 is legal but uncolorable, so the
        # achieved II exceeds MinII for the register file's sake, not the
        # search's.
        for scheduler in ("sgi", "rau"):
            explanation = explain_cell("livermore:lk08_adi", scheduler)
            assert explanation.success
            assert explanation.gap is not None and explanation.gap > 0
            assert explanation.binding == "register_pressure", scheduler
            assert explanation.evidence["allocated"] is False, scheduler
            assert explanation.evidence["uncolored"] > 0, scheduler

    def test_portfolio_explained_from_its_probe_trail(self):
        # lk18: CP answers sat at II 7 = MinII, but that schedule does not
        # colour, so the portfolio walks on to II 8.  The walk stamped the
        # allocation outcome on the II-7 probe; explain cites that probe.
        explanation = explain_cell(
            "livermore:lk18_hydro2d", "portfolio", {"time_limit": 5.0}
        )
        assert explanation.ii == explanation.min_ii + 1
        assert explanation.binding == "register_pressure"
        assert explanation.detail.startswith("CP scheduled II=7")
        assert explanation.evidence["ii"] == 7
        assert explanation.evidence["answer"] == "sat"
        assert explanation.evidence["allocated"] is False

    def test_most_register_pressure_cites_the_production_probe(self, machine, lk18_most):
        # The production walk's ILP answered sat at II 7 with a valid
        # witness; the walk moved to II 8 only because that schedule did
        # not allocate.  The explanation must say so, not that a budget
        # expired.
        result = lk18_most
        (probe,) = [p for p in result.probes if p.ii == 7 and p.witness_ok]
        assert probe.allocated is False and probe.uncolored > 0
        explanation = explain_result(result, "most", machine)
        assert (explanation.ii, explanation.min_ii) == (8, 7)
        assert explanation.binding == "register_pressure"
        assert explanation.evidence["ii"] == 7
        assert explanation.evidence["backend"] == "ilp"
        assert explanation.evidence["uncolored"] == probe.uncolored
        assert f"{probe.uncolored} live range(s) failed to colour" in explanation.detail

    def test_explaining_solves_nothing(self, machine, monkeypatch, lk18_most):
        # Run the cells first, then make every scheduling and solving entry
        # point raise: attributing the finished results must not call one.
        cells = [
            ("livermore:lk08_adi", "sgi", {}),
            ("livermore:lk08_adi", "rau", {}),
            ("livermore:lk18_hydro2d", "portfolio", {"time_limit": 5.0}),
        ]
        results = [("most", lk18_most)]
        for key, name, options in cells:
            driver = get_scheduler(name)
            loop = resolve_loop(key, machine)
            results.append((name, driver.run(loop, machine, driver.options_from_dict(options))))

        def forbidden(*args, **kwargs):
            raise AssertionError("explain must not schedule or solve")

        import repro.core.driver
        import repro.core.iisearch
        import repro.portfolio.cp
        import repro.portfolio.ilp_backend
        import repro.rau.scheduler

        # Every module that binds a solver entry point, wherever it lives.
        solvers = (repro.portfolio.ilp_backend.solve_ilp, repro.portfolio.cp.solve_cp)
        bindings = [
            (module, name)
            for module in list(sys.modules.values())
            if getattr(module, "__name__", "").startswith("repro.")
            for name, value in list(vars(module).items())
            if any(value is solver for solver in solvers)
        ]
        assert {module.__name__ for module, _ in bindings} >= {
            "repro.portfolio.ilp_backend", "repro.portfolio.cp", "repro.most.walk",
        }
        for module, name in (
            (repro.core.iisearch, "search_ii"),
            (repro.core.driver, "search_ii"),
            (repro.rau.scheduler, "iterative_modulo_schedule"),
            *bindings,
        ):
            monkeypatch.setattr(module, name, forbidden)
        for name, result in results:
            explanation = explain_result(result, name, machine)
            assert explanation.binding == "register_pressure", name
            assert explanation.evidence, name

    def test_untraced_explanation_equals_traced(self):
        for key, name in (("livermore:lk08_adi", "sgi"), ("livermore:lk18_hydro2d", "rau")):
            untraced = explain_cell(key, name).to_dict()
            traced = explain_cell(key, name, trace=True).to_dict()
            assert untraced == traced, (key, name)
            assert untraced["attempts"], (key, name)

    def test_exactly_one_class_per_cell(self):
        cells = corpus_cells(
            "livermore", ("sgi", "rau"), {"sgi": {}, "rau": {}}, limit=6,
            simulate=False, explain=True,
        )
        results = ExecEngine().run(cells)
        explanations = [IIExplanation.from_dict(results[c].explanation) for c in cells]
        assert len(explanations) == 6 * 2
        for explanation in explanations:
            assert explanation.binding in BINDING_CLASSES
            if explanation.gap == 0:
                assert explanation.binding in AT_BOUND_CLASSES

    def test_mrt_covers_the_kernel(self, machine):
        explanation = explain_cell("livermore:lk01_hydro", "sgi")
        assert explanation.mrt is not None
        assert len(explanation.mrt) == explanation.ii
        placed = sum(len(row["ops"]) for row in explanation.mrt)
        assert placed >= resolve_loop("livermore:lk01_hydro", machine).n_ops


class TestSerialisation:
    def test_round_trip(self):
        explanation = explain_cell("livermore:lk03_inner", "sgi")
        data = explanation.to_dict()
        again = IIExplanation.from_dict(data)
        assert again.to_dict() == data
        assert again.binding == explanation.binding

    def test_from_dict_tolerates_future_keys(self):
        data = explain_cell("livermore:lk03_inner", "sgi").to_dict()
        data["from_the_future"] = True
        assert IIExplanation.from_dict(data).loop == data["loop"]

    def test_format_explanations_table(self):
        explanations = [
            explain_cell("livermore:lk01_hydro", "sgi").to_dict(),
            explain_cell("livermore:lk03_inner", "sgi").to_dict(),
        ]
        text = format_explanations(explanations)
        assert "lk01_hydro" in text
        assert "bindings:" in text
        assert "resource=1" in text and "recurrence=1" in text


class TestExecPlumbing:
    def test_cell_explain_flag_lands_in_result(self):
        from repro.exec.cells import Cell, CellResult
        from repro.exec.engine import ExecEngine

        cell = Cell.make(
            "livermore:lk03_inner", "sgi", simulate=False, trace=True, explain=True
        )
        engine = ExecEngine(jobs=1)
        result = engine.run([cell])[cell]
        assert result.error is None
        assert result.explanation is not None
        assert result.explanation["binding"] == "recurrence"
        # The II-attempt timeline is the driver's own trail.
        assert result.explanation["attempts"]
        assert CellResult.from_dict(result.to_dict()).explanation is not None

    def test_explain_participates_in_the_cache_key(self):
        from repro.exec.cells import Cell
        from repro.exec.engine import ExecEngine

        engine = ExecEngine(jobs=1)
        plain = Cell.make("livermore:lk03_inner", "sgi", simulate=False)
        explained = Cell.make("livermore:lk03_inner", "sgi", simulate=False, explain=True)
        assert engine.key_of(plain) != engine.key_of(explained)

    def test_bench_summary_counts_bindings(self):
        from repro.exec.bench import summarise
        from repro.exec.cells import CellResult

        results = [
            CellResult(
                loop="a", scheduler="sgi", success=True, ii=2, min_ii=2,
                explanation={"binding": "resource"},
            ),
            CellResult(
                loop="b", scheduler="sgi", success=True, ii=3, min_ii=2,
                explanation={"binding": "register_pressure"},
            ),
        ]
        totals = summarise(results)
        assert totals["bindings"] == {"resource": 1, "register_pressure": 1}
        assert totals["by_scheduler"]["sgi"]["bindings"]["resource"] == 1
