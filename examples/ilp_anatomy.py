#!/usr/bin/env python3
"""Anatomy of the optimal pipeliner: the ILP formulation, stage by stage.

Reproduces the McGill methodology of Section 3.3 on one loop with a real
recurrence (Livermore kernel 5, tri-diagonal elimination):

1. prove smaller IIs infeasible and find a resource-constrained schedule;
2. minimise buffers (iteration overlap) at the winning II;
3. compare against the integrated single-solve formulation and against
   the SGI heuristics.

Run:  python examples/ilp_anatomy.py
"""

import time

from repro import Schedule, allocate_schedule, livermore_kernel, min_ii, pipeline_loop, r8000
from repro.ilp import SolverOptions, Status, solve_milp
from repro.most import MostOptions, build_formulation, most_pipeline_loop
from repro.portfolio import build_modulo_formulation


def main() -> None:
    machine = r8000()
    loop = livermore_kernel(5, machine)
    print(loop)
    mii = min_ii(loop, machine)
    print(f"\nMinII = {mii} (RecMII-bound: x[i] = z[i]*(y[i]-x[i-1]))")

    # ------------------------------------------------------------------
    # 1. Walk the II range with the resource-constrained formulation.
    # ------------------------------------------------------------------
    print("\nstage 1 — resource-constrained feasibility per II:")
    times = None
    winning_ii = None
    for ii in range(max(1, mii - 2), mii + 2):
        formulation = build_formulation(build_modulo_formulation(loop, machine, ii))
        if formulation.infeasible:
            print(f"  II={ii}: infeasible (dependence windows collapse)")
            continue
        result = solve_milp(
            formulation.model, SolverOptions(engine="scipy", time_limit=20)
        )
        print(
            f"  II={ii}: {result.status.value} "
            f"({formulation.model.n_vars} binaries, "
            f"{len(formulation.model.constraints)} constraints, "
            f"{result.seconds:.2f}s)"
        )
        if result.has_solution and times is None:
            times = formulation.decode_times(result)
            winning_ii = ii
    schedule = Schedule(loop=loop, machine=machine, ii=winning_ii, times=times)
    schedule.validate()
    print(f"\nstage-1 schedule at II={winning_ii}: buffers={schedule.buffer_count()}")

    # ------------------------------------------------------------------
    # 2. Buffer minimisation at the winning II.
    # ------------------------------------------------------------------
    formulation = build_formulation(
        build_modulo_formulation(loop, machine, winning_ii), "buffers",
        cutoff=schedule.buffer_count(),
    )
    result = solve_milp(formulation.model, SolverOptions(engine="scipy", time_limit=30))
    best = Schedule(
        loop=loop, machine=machine, ii=winning_ii,
        times=formulation.decode_times(result),
    )
    print(
        f"stage 2 — buffer minimisation: {result.status.value}, "
        f"buffers {schedule.buffer_count()} -> {best.buffer_count()}"
    )
    allocation = allocate_schedule(best, machine)
    print(f"register allocation: {allocation.registers_used} registers, kmin={allocation.kmin}")

    # ------------------------------------------------------------------
    # 3. The packaged driver vs the heuristics.
    # ------------------------------------------------------------------
    start = time.perf_counter()
    optimal = most_pipeline_loop(loop, machine, MostOptions(time_limit=30, engine="scipy"))
    ilp_seconds = time.perf_counter() - start
    start = time.perf_counter()
    heuristic = pipeline_loop(loop, machine)
    sgi_seconds = time.perf_counter() - start
    print(
        f"\nshowdown on {loop.name}:"
        f"\n  MOST : II={optimal.ii} (optimal={optimal.optimal}) in {ilp_seconds:.2f}s"
        f"\n  SGI  : II={heuristic.ii} via {heuristic.order_name} in {sgi_seconds:.4f}s"
        f"\n  compile-time ratio: {ilp_seconds / max(sgi_seconds, 1e-9):.0f}x slower"
        " (the paper measured ~285x over SPEC92)"
    )


if __name__ == "__main__":
    main()
