"""Tests for the ILP modelling layer and branch-and-bound MILP solver."""

import numpy as np
import pytest

from repro.ilp import Model, Sense, SolverOptions, Status, solve_milp
from repro.ilp.solver import to_arrays


def knapsack(values, weights, capacity):
    m = Model("knapsack")
    xs = [m.add_var(f"x{i}", binary=True) for i in range(len(values))]
    m.add_constraint({x: w for x, w in zip(xs, weights)}, Sense.LE, capacity)
    m.set_objective({x: v for x, v in zip(xs, values)}, minimize=False)
    return m, xs


class TestModel:
    def test_binary_var_bounds(self):
        m = Model()
        x = m.add_var("x", binary=True)
        assert x.lb == 0 and x.ub == 1 and x.integer

    def test_to_arrays_shapes(self):
        m, xs = knapsack([1, 2], [1, 1], 1)
        c, A_ub, b_ub, A_eq, b_eq, bounds = to_arrays(m)
        assert c.shape == (2,)
        assert A_ub.shape == (1, 2)
        assert A_eq is None
        assert len(bounds) == 2

    def test_maximize_negates_costs(self):
        m, xs = knapsack([3, 5], [1, 1], 2)
        c, *_ = to_arrays(m)
        assert c[0] == -3 and c[1] == -5

    def test_ge_constraints_flip(self):
        m = Model()
        x = m.add_var("x", lb=0, ub=10)
        m.add_constraint({x: 1.0}, Sense.GE, 4.0)
        _, A_ub, b_ub, *_ = to_arrays(m)
        assert A_ub[0, 0] == -1.0 and b_ub[0] == -4.0

    def test_extra_bounds_tighten(self):
        m = Model()
        x = m.add_var("x", lb=0, ub=10)
        *_, bounds = to_arrays(m, {x.index: (2.0, 5.0)})
        assert bounds[0] == (2.0, 5.0)


class TestBranchAndBound:
    def test_knapsack_optimal(self):
        # values 6,5,4 / weights 4,3,2, cap 5 -> pick {5,4} = 9.
        m, xs = knapsack([6, 5, 4], [4, 3, 2], 5)
        result = solve_milp(m, SolverOptions(engine="bnb"))
        assert result.status is Status.OPTIMAL
        assert result.objective == pytest.approx(9.0)
        assert result.value(xs[0]) == pytest.approx(0.0)

    def test_infeasible_detected(self):
        m = Model()
        x = m.add_var("x", binary=True)
        m.add_constraint({x: 1.0}, Sense.GE, 2.0)
        result = solve_milp(m, SolverOptions(engine="bnb"))
        assert result.status is Status.INFEASIBLE
        assert not result.has_solution

    def test_integer_rounding_needed(self):
        # LP relaxation is fractional; MILP optimum differs.
        m = Model()
        x = m.add_var("x", lb=0, ub=10, integer=True)
        y = m.add_var("y", lb=0, ub=10, integer=True)
        m.add_constraint({x: 2.0, y: 2.0}, Sense.LE, 7.0)
        m.set_objective({x: 1.0, y: 1.0}, minimize=False)
        result = solve_milp(m, SolverOptions(engine="bnb"))
        assert result.status is Status.OPTIMAL
        assert result.objective == pytest.approx(3.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_scipy_milp(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        values = rng.integers(1, 12, n).tolist()
        weights = rng.integers(1, 8, n).tolist()
        cap = int(sum(weights) * 0.4)
        m1, _ = knapsack(values, weights, cap)
        m2, _ = knapsack(values, weights, cap)
        ours = solve_milp(m1, SolverOptions(engine="bnb"))
        ref = solve_milp(m2, SolverOptions(engine="scipy"))
        assert ours.status is Status.OPTIMAL
        assert ref.status is Status.OPTIMAL
        assert ours.objective == pytest.approx(ref.objective)

    def test_first_solution_stops_early(self):
        m, _ = knapsack(list(range(1, 13)), [1] * 12, 6)
        full = solve_milp(m, SolverOptions(engine="bnb"))
        m2, _ = knapsack(list(range(1, 13)), [1] * 12, 6)
        quick = solve_milp(m2, SolverOptions(engine="bnb", first_solution=True))
        assert quick.status is Status.FEASIBLE
        assert quick.nodes <= full.nodes
        # A first solution may be suboptimal.
        assert quick.objective <= full.objective + 1e-9

    def test_node_limit_returns_unsolved_or_feasible(self):
        m, _ = knapsack(list(range(1, 15)), [2] * 14, 9)
        result = solve_milp(m, SolverOptions(engine="bnb", max_nodes=1))
        assert result.status in (Status.UNSOLVED, Status.FEASIBLE)

    def test_branch_priority_changes_exploration(self):
        # With first_solution, the branch priority determines which
        # solution is found first.
        m, xs = knapsack([5, 5], [1, 1], 1)
        r1 = solve_milp(
            m,
            SolverOptions(
                engine="bnb",
                first_solution=True,
                branch_priority=[xs[0].index, xs[1].index],
            ),
        )
        assert r1.has_solution

    def test_equality_constraints(self):
        m = Model()
        x = m.add_var("x", lb=0, ub=5, integer=True)
        y = m.add_var("y", lb=0, ub=5, integer=True)
        m.add_constraint({x: 1.0, y: 1.0}, Sense.EQ, 4.0)
        m.set_objective({x: 1.0, y: 2.0}, minimize=True)
        result = solve_milp(m, SolverOptions(engine="bnb"))
        assert result.objective == pytest.approx(4.0)  # x=4, y=0

    def test_continuous_variables_kept_fractional(self):
        m = Model()
        x = m.add_var("x", lb=0, ub=1, integer=True)
        y = m.add_var("y", lb=0, ub=10)  # continuous
        m.add_constraint({x: 1.0, y: 1.0}, Sense.LE, 2.5)
        m.set_objective({x: 1.0, y: 1.0}, minimize=False)
        result = solve_milp(m, SolverOptions(engine="bnb"))
        assert result.objective == pytest.approx(2.5)
        # x must be integral; y absorbs the fractional remainder.
        assert result.value(x) in (0.0, 1.0)
        assert result.value(y) == pytest.approx(2.5 - result.value(x))


def test_solve_milp_rejects_an_unknown_engine():
    model, _ = knapsack([3, 4], [2, 3], 4)
    with pytest.raises(ValueError, match="highs"):
        solve_milp(model, SolverOptions(engine="highs"))


class TestExhaustiveCrossCheck:
    @pytest.mark.parametrize("seed", range(4))
    def test_bnb_matches_exhaustive_enumeration(self, seed):
        """On tiny instances, brute force over all assignments must agree
        with the branch-and-bound optimum."""
        rng = np.random.default_rng(100 + seed)
        n = 8
        values = rng.integers(1, 20, n).tolist()
        weights = rng.integers(1, 10, n).tolist()
        cap = int(sum(weights) * 0.45)
        best = 0
        for mask in range(1 << n):
            w = sum(weights[i] for i in range(n) if mask >> i & 1)
            if w <= cap:
                v = sum(values[i] for i in range(n) if mask >> i & 1)
                best = max(best, v)
        model, _ = knapsack(values, weights, cap)
        result = solve_milp(model, SolverOptions(engine="bnb"))
        assert result.status is Status.OPTIMAL
        assert result.objective == pytest.approx(best)
