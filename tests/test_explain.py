"""Tests for repro.obs.explain — II-gap attribution.

Seeded on empirically mapped Livermore loops (r8000 machine model):

* ``lk13_pic2d`` — RecMII 11 vs ResMII 4: a recurrence-bound MinII with a
  multi-op critical circuit.
* ``lk01_hydro`` — ResMII 2 vs RecMII 1 with the memory ports at 100%
  utilization: a resource-bound MinII.
* ``lk08_adi`` — MinII 11 from tight 2-FPU packing, but every II-11
  schedule leaves live ranges uncolorable: the classic register-pressure
  II bump, for both the SGI driver and Rau94.
"""

from __future__ import annotations

import pytest

from repro.exec.cells import resolve_loop
from repro.machine.descriptions import r8000
from repro.obs.explain import (
    AT_BOUND_CLASSES,
    BINDING_CLASSES,
    IIExplanation,
    bottleneck_resource,
    critical_circuit,
    explain_corpus,
    explain_loop,
    format_explanations,
    minii_profile,
    resource_utilization,
)


@pytest.fixture(scope="module")
def machine():
    return r8000()


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
    def test_recurrence_bound_cells(self, machine):
        for scheduler in ("sgi", "rau"):
            explanation = explain_loop("livermore:lk13_pic2d", scheduler, machine)
            assert explanation.success
            assert explanation.binding == "recurrence"
            assert explanation.gap == 0
            assert explanation.ii == explanation.rec_mii
            assert explanation.critical_circuit
            assert "circuit" in explanation.detail

    def test_resource_bound_cell(self, machine):
        explanation = explain_loop("livermore:lk01_hydro", "sgi", machine)
        assert explanation.binding == "resource"
        assert explanation.gap == 0
        assert explanation.bottleneck == "mem"
        assert "'mem'" in explanation.detail
        assert explanation.utilization["mem"] == pytest.approx(1.0)

    def test_register_pressure_ii_bump(self, machine):
        # lk08: every schedule at MinII=11 is legal but uncolorable, so the
        # achieved II exceeds MinII for the register file's sake, not the
        # search's.
        for scheduler in ("sgi", "rau"):
            explanation = explain_loop("livermore:lk08_adi", scheduler, machine)
            assert explanation.success
            assert explanation.gap is not None and explanation.gap > 0
            assert explanation.binding == "register_pressure", scheduler
            assert explanation.replay, "II-1 replay evidence missing"

    def test_portfolio_replays_its_backend_race(self, machine):
        # lk18: CP answers sat at II 7 = MinII, but that schedule does not
        # colour, so the portfolio walks on to II 8.  The replay goes
        # through the classifier MOST's ILP replay uses.
        explanation = explain_loop(
            "livermore:lk18_hydro2d", "portfolio", machine, {"time_limit": 5.0}
        )
        assert explanation.ii == explanation.min_ii + 1
        assert explanation.binding == "register_pressure"
        assert explanation.detail.startswith("CP schedules II−1=7")
        assert explanation.replay["answer"] == "sat"
        assert explanation.replay["alloc_success"] is False

    def test_exactly_one_class_per_cell(self, machine):
        explanations = explain_corpus(
            "livermore", schedulers=("sgi", "rau"), machine=machine, limit=6
        )
        assert len(explanations) == 6 * 2
        for explanation in explanations:
            assert explanation.binding in BINDING_CLASSES
            if explanation.gap == 0:
                assert explanation.binding in AT_BOUND_CLASSES

    def test_mrt_covers_the_kernel(self, machine):
        explanation = explain_loop("livermore:lk01_hydro", "sgi", machine)
        assert explanation.mrt is not None
        assert len(explanation.mrt) == explanation.ii
        placed = sum(len(row["ops"]) for row in explanation.mrt)
        assert placed >= resolve_loop("livermore:lk01_hydro", machine).n_ops


class TestSerialisation:
    def test_round_trip(self, machine):
        explanation = explain_loop("livermore:lk03_inner", "sgi", machine)
        data = explanation.to_dict()
        again = IIExplanation.from_dict(data)
        assert again.to_dict() == data
        assert again.binding == explanation.binding

    def test_from_dict_tolerates_future_keys(self):
        data = explain_loop("livermore:lk03_inner", "sgi").to_dict()
        data["from_the_future"] = True
        assert IIExplanation.from_dict(data).loop == data["loop"]

    def test_format_explanations_table(self, machine):
        explanations = [
            explain_loop("livermore:lk01_hydro", "sgi", machine),
            explain_loop("livermore:lk03_inner", "sgi", machine),
        ]
        text = format_explanations(explanations)
        assert "lk01_hydro" in text
        assert "bindings:" in text
        assert "resource=1" in text and "recurrence=1" in text


class TestExecPlumbing:
    def test_cell_explain_flag_lands_in_result(self):
        from repro.exec.cells import Cell, CellResult
        from repro.exec.runner import ExecEngine

        cell = Cell.make(
            "livermore:lk03_inner", "sgi", simulate=False, trace=True, explain=True
        )
        engine = ExecEngine(jobs=1)
        result = engine.run([cell])[cell]
        assert result.error is None
        assert result.explanation is not None
        assert result.explanation["binding"] == "recurrence"
        # The II-attempt timeline was harvested from the live recorder.
        assert result.explanation["attempts"]
        assert CellResult.from_dict(result.to_dict()).explanation is not None

    def test_explain_participates_in_the_cache_key(self):
        from repro.exec.cells import Cell
        from repro.exec.runner import ExecEngine

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
