"""The backend-neutral formulation IR and its independent witness checker."""

from __future__ import annotations

import pytest

from repro.core import min_ii
from repro.ir import LoopBuilder
from repro.machine import r8000, single_issue
from repro.most import build_formulation
from repro.portfolio import (
    ModuloFormulation,
    build_modulo_formulation,
    check_witness,
)
from repro.portfolio.formulation import (
    FormulationArc,
    critical_path,
    default_horizon_stages,
    time_windows,
)

from .conftest import build_daxpy, build_divider, build_recurrence_chain, build_sdot


class TestNeutralBuild:
    def test_windows_match_ddg_longest_paths(self, machine, daxpy):
        ii = min_ii(daxpy, machine)
        f = build_modulo_formulation(daxpy, machine, ii)
        assert not f.infeasible
        assert len(f.windows) == daxpy.n_ops
        # Every arc's difference constraint must be satisfiable inside the
        # windows: ASAP of dst at least ASAP of src plus the arc weight.
        asap = [lo for lo, _ in f.windows]
        for arc in f.dep_arcs():
            assert asap[arc.dst] >= asap[arc.src] + arc.weight(ii)

    def test_op_uses_follow_machine_tables(self, machine, sdot):
        ii = min_ii(sdot, machine)
        f = build_modulo_formulation(sdot, machine, ii)
        for op in range(sdot.n_ops):
            table = machine.table(sdot.ops[op].opclass)
            assert f.op_uses[op] == [
                (use.offset, use.resource, use.count) for use in table.uses
            ]
        assert f.availability == dict(machine.availability)

    def test_horizon_covers_critical_path(self, machine, rec1):
        ii = min_ii(rec1, machine)
        f = build_modulo_formulation(rec1, machine, ii)
        assert f.horizon == f.stages * ii
        assert f.stages == default_horizon_stages(rec1, machine, ii)
        assert f.horizon >= critical_path(rec1)

    def test_self_recurrence_screen(self, machine):
        # latency(fadd chain) > II * omega at II=1 forces the screen.
        b = LoopBuilder("tight", machine=machine, trip_count=100)
        s = b.recurrence("s")
        t = b.fadd(s.use(), b.invariant("c"))
        s.close(b.fadd(t, b.invariant("d")))
        b.live_out_value(s)
        loop = b.build()
        f = build_modulo_formulation(loop, machine, 1)
        assert f.infeasible
        assert "window" in f.infeasible_reason or "recurrence" in f.infeasible_reason

    def test_window_collapse_marks_infeasible(self, machine, sdot):
        # A one-stage horizon cannot hold the sdot critical path.
        f = build_modulo_formulation(sdot, machine, 1, stages=1)
        assert f.infeasible
        assert f.infeasible_reason

    def test_collapse_matches_time_windows_none(self, machine, sdot):
        assert time_windows(sdot, 1, 1) is None

    def test_arc_weight(self):
        arc = FormulationArc(src=0, dst=1, latency=4, omega=1)
        assert arc.weight(3) == 1
        assert arc.weight(6) == -2

    def test_flow_value_arcs_filter(self, machine, daxpy):
        ii = min_ii(daxpy, machine)
        f = build_modulo_formulation(daxpy, machine, ii)
        for arc in f.flow_value_arcs():
            assert arc.kind == "flow"
            assert arc.value


class TestWitnessChecker:
    def _sat_formulation_and_times(self, machine, loop):
        from repro.portfolio.cp import solve_cp

        ii = min_ii(loop, machine)
        f = build_modulo_formulation(loop, machine, ii)
        answer = solve_cp(f)
        assert answer.answer == "sat"
        return f, dict(answer.times)

    def test_genuine_witness_is_clean(self, machine, daxpy):
        f, times = self._sat_formulation_and_times(machine, daxpy)
        assert check_witness(f, times) == []

    def test_unplaced_op_detected(self, machine, daxpy):
        f, times = self._sat_formulation_and_times(machine, daxpy)
        times.pop(0)
        assert any("unplaced" in e for e in check_witness(f, times))

    def test_window_violation_detected(self, machine, daxpy):
        f, times = self._sat_formulation_and_times(machine, daxpy)
        times[0] = f.windows[0][1] + 1
        assert any("outside window" in e for e in check_witness(f, times))

    def test_arc_violation_detected(self):
        f = ModuloFormulation(
            loop_name="synthetic", n_ops=2, ii=2, stages=2, horizon=4,
            windows=[(0, 3), (0, 3)],
            arcs=[FormulationArc(src=0, dst=1, latency=3, omega=0)],
            op_uses=[[], []],
            availability={},
        )
        errors = check_witness(f, {0: 0, 1: 1})  # needs dst - src >= 3
        assert any("arc 0->1" in e for e in errors)
        assert check_witness(f, {0: 0, 1: 3}) == []

    def test_resource_oversubscription_detected(self, machine):
        loop = build_sdot(machine)
        ii = min_ii(loop, machine)
        f = build_modulo_formulation(loop, machine, ii)
        # Two loads in the same modulo slot exceed the memory ports iff
        # the machine has fewer than two; force the clash generically by
        # stacking every op on slot 0 of a 1-wide machine instead.
        tiny = single_issue()
        loop1 = build_sdot(tiny)
        ii1 = min_ii(loop1, tiny)
        f1 = build_modulo_formulation(loop1, tiny, ii1)
        same_slot = {op: f1.windows[op][0] for op in range(f1.n_ops)}
        errors = check_witness(f1, same_slot)
        assert errors  # some constraint must trip on a 1-wide machine
        del f, ii

    def test_witness_against_infeasible_formulation(self, machine, sdot):
        f = build_modulo_formulation(sdot, machine, 1, stages=1)
        errors = check_witness(f, {})
        assert any("infeasible" in e for e in errors)


class TestMostEncodingOfNeutral:
    """build_formulation is the ILP *encoding* of the neutral object."""

    def test_encoding_one_neutral_twice_builds_the_same_model(self, machine, daxpy):
        ii = min_ii(daxpy, machine)
        neutral = build_modulo_formulation(daxpy, machine, ii)
        first, second = build_formulation(neutral), build_formulation(neutral)
        assert first.model.name == second.model.name
        assert first.model.n_vars == second.model.n_vars
        assert len(first.model.constraints) == len(second.model.constraints)
        assert [v.name for v in first.model.variables] == [
            v.name for v in second.model.variables
        ]
        with pytest.raises(ValueError, match="unknown objective"):
            build_formulation(neutral, "buffer")

    def test_assignment_vars_cover_windows(self, machine, rec1):
        ii = min_ii(rec1, machine)
        neutral = build_modulo_formulation(rec1, machine, ii)
        encoded = build_formulation(neutral)
        for op in range(neutral.n_ops):
            lo, hi = neutral.windows[op]
            for t in range(lo, hi + 1):
                assert (op, t) in encoded.assign

    def test_infeasible_neutral_yields_infeasible_model(self, machine, sdot):
        neutral = build_modulo_formulation(sdot, machine, 1, stages=1)
        encoded = build_formulation(neutral)
        assert encoded.infeasible
        assert encoded.assign == {}

    def test_ilp_solution_passes_neutral_checker(self, machine):
        from repro.ilp import SolverOptions, solve_milp

        loop = build_daxpy(machine)
        ii = min_ii(loop, machine)
        neutral = build_modulo_formulation(loop, machine, ii)
        encoded = build_formulation(neutral)
        result = solve_milp(encoded.model, SolverOptions(time_limit=10.0))
        assert result.has_solution
        times = encoded.decode_times(result)
        assert check_witness(neutral, times) == []

    @pytest.mark.parametrize("builder", [build_daxpy, build_recurrence_chain,
                                         build_divider])
    def test_backends_answer_literally_the_same_object(self, builder):
        machine = r8000()
        loop = builder(machine)
        ii = min_ii(loop, machine)
        neutral = build_modulo_formulation(loop, machine, ii)
        assert isinstance(neutral, ModuloFormulation)
        # The MOST encoding consumed the same instance the CP backend gets.
        encoded = build_formulation(neutral)
        assert encoded.ii == neutral.ii
        assert encoded.horizon == neutral.horizon
