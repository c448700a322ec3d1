"""Ablation (§3.3, adjustment 3): priority-order-guided ILP branching.

"The priority order in which the ILP solver traverses the branch-and-
bound tree is by far the most important factor affecting whether it
could solve the problem.\""""

from repro.core import min_ii, production_orders
from repro.eval import Table
from repro.ilp import SolverOptions, solve_milp
from repro.ir import LoopBuilder
from repro.machine import r8000
from repro.most import build_formulation
from repro.portfolio import build_modulo_formulation

from .conftest import OUTPUT_DIR, run_once


def _reduction_loop(machine, pairs):
    b = LoopBuilder(f"red{pairs}", machine=machine)
    acc = b.recurrence("acc")
    total = None
    for k in range(pairs):
        v = b.load("a", offset=8 * k, stride=8 * pairs)
        w = b.load("b", offset=8 * k, stride=8 * pairs)
        p = b.fmul(v, w)
        total = p if total is None else b.fadd(total, p)
    acc.close(b.fadd(total, acc.use()))
    return b.build()


def test_ablation_ilp_branching(benchmark, record_artifact):
    machine = r8000()

    def run():
        table = Table(
            "Ablation: priority-guided vs fractionality branching (our B&B)",
            ["loop", "II", "guided nodes", "guided ok", "unguided nodes", "unguided ok"],
        )
        summary = {"guided_nodes": 0, "unguided_nodes": 0, "guided_solved": 0, "unguided_solved": 0}
        for pairs in (3, 4, 5):
            loop = _reduction_loop(machine, pairs)
            ii = min_ii(loop, machine)
            formulation = build_formulation(build_modulo_formulation(loop, machine, ii))
            order = next(iter(production_orders(loop, machine).values()))
            guided = solve_milp(
                formulation.model,
                SolverOptions(
                    engine="bnb", time_limit=20, first_solution=True,
                    branch_priority=formulation.branch_priority(order),
                ),
            )
            formulation2 = build_formulation(build_modulo_formulation(loop, machine, ii))
            unguided = solve_milp(
                formulation2.model,
                SolverOptions(engine="bnb", time_limit=20, first_solution=True),
            )
            table.add(
                loop.name, ii, guided.nodes, guided.has_solution,
                unguided.nodes, unguided.has_solution,
            )
            summary["guided_nodes"] += guided.nodes
            summary["unguided_nodes"] += unguided.nodes
            summary["guided_solved"] += int(guided.has_solution)
            summary["unguided_solved"] += int(unguided.has_solution)
        return table, summary

    table, summary = run_once(benchmark, run)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "ablation_ilp_branching.txt").write_text(table.formatted() + "\n")
    benchmark.extra_info.update(summary)
    # Shape: guidance never solves fewer instances, and within the solved
    # set it explores no more nodes overall.
    assert summary["guided_solved"] >= summary["unguided_solved"]
