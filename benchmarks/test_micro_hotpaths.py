"""Pinned-seed microbenchmarks of the scheduler hot paths (perf CI lane).

Thirteen timed kernels cover the inner loops the raw-speed campaign
optimized — reservation-table probing, distance-table construction and
query, the RecMII search, two budget-stopped branch-and-bound attempts
(one with bank pairing), the portfolio's CP search — and the
per-cell layers every scheduled loop pays for: register allocation
(renaming, bitset interference, colouring), the banked-memory
performance simulation (fast-forwarded and walked), the functional
oracle, the independent verifier and the emitter, and the whole oracle
once more on a generated body, the shape where it outweighs the solver.
A per-PR time series of ``schedule_seconds`` thus exists below the full
bench grid's noise floor.

Two entry points:

* ``pytest benchmarks/test_micro_hotpaths.py`` (or ``make bench-micro``)
  runs the suite, writes ``benchmarks/output/BENCH_micro.json``, and
  diffs it against the committed ``benchmarks/baseline/BENCH_micro.json``
  with ``repro diff``: the ``micro`` row of ``repro.obs.trend.TOLERANCES``
  is generous enough that CI-runner noise doesn't flake the lane while
  real hot-path regressions still can't land silently.
* ``python benchmarks/test_micro_hotpaths.py --update-baseline`` refreshes
  the committed baseline after an intentional perf change.

Every kernel is deterministic (fixed loops, fixed II sequences, fixed
schedules, no RNG at all) and reports the *best* of several repeats, which
is the standard way to damp scheduler-preemption noise out of wall-clock
microbenchmarks.
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys
import time
import warnings
from typing import Callable, Dict

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.bnb import BnBConfig, _Attempt, prepare_attempt  # noqa: E402
from repro.core.distances import SccDistanceTables  # noqa: E402
from repro.core.driver import pipeline_loop  # noqa: E402
from repro.core.membank import BankPairer  # noqa: E402
from repro.core.minii import _search_rec_mii, min_ii  # noqa: E402
from repro.core.priorities import order_by_name  # noqa: E402
from repro.exec.cells import resolve_loop  # noqa: E402
from repro.machine.descriptions import r8000  # noqa: E402
from repro.machine.resources import ModuloReservationTable  # noqa: E402
from repro.obs.diffbench import diff_reports  # noqa: E402
from repro.obs.export import atomic_write_text  # noqa: E402
from repro.pipeline.emit import emit_pipelined_code  # noqa: E402
from repro.portfolio.cp import solve_cp  # noqa: E402
from repro.portfolio.formulation import build_modulo_formulation  # noqa: E402
from repro.regalloc.coloring import allocate  # noqa: E402
from repro.regalloc.rename import rename_kernel  # noqa: E402
from repro.schedulers import get_scheduler  # noqa: E402
from repro.sim.functional import run_pipelined, run_sequential  # noqa: E402
from repro.sim.layout import DataLayout  # noqa: E402
from repro.sim.perf import simulate_pipelined  # noqa: E402
from repro.verify import verify_result  # noqa: E402
from repro.workloads.generators import GeneratorConfig, random_loop, random_spec  # noqa: E402
from repro.workloads.livermore import livermore_kernels  # noqa: E402

OUTPUT_PATH = REPO_ROOT / "benchmarks" / "output" / "BENCH_micro.json"
BASELINE_PATH = REPO_ROOT / "benchmarks" / "baseline" / "BENCH_micro.json"

REPEATS = 5


def bench_mrt_fits_place_remove() -> None:
    """Probe/place/remove churn over every opclass of the r8000 tables (the
    loop is built once per process, outside the timed calls)."""
    loop, machine = _registry_loop("livermore:lk09_predict")
    tables = [machine.table(op.opclass) for op in loop.ops]
    for ii in (4, 6, 9):
        mrt = ModuloReservationTable(ii, machine.availability)
        placed = []
        for rep in range(40):
            for op, table in enumerate(tables):
                cycle = (op * 3 + rep) % (4 * ii)
                if mrt.fits(table, cycle):
                    mrt.place(table, cycle)
                    placed.append((table, cycle))
            while placed:
                table, cycle = placed.pop()
                mrt.remove(table, cycle)


def bench_scc_distances() -> None:
    """Distance-table construction + full pair queries at MinII..MinII+4.

    Loops are rebuilt each repeat, so the timing includes the parametric
    profile construction, not just memo hits.
    """
    machine = r8000()
    for loop in livermore_kernels(machine):
        if not loop.ddg.nontrivial_sccs():
            continue
        mii = min_ii(loop, machine)
        for ii in range(mii, mii + 5):
            dists = SccDistanceTables(loop, ii)
            for scc in loop.ddg.nontrivial_sccs():
                for src in scc:
                    for dst in scc:
                        dists.dist(src, dst)


@functools.lru_cache(maxsize=None)
def _recurrent_body():
    """A 40-op generated body (66 arcs) with 3 recurrences, none in the corpora."""
    return random_loop(0, GeneratorConfig(n_compute=31, n_streams=4, n_recurrences=3,
                                          p_fdiv=0.0), r8000())


def bench_rec_mii() -> None:
    """20 RecMII binary searches of that body, past the per-loop memo."""
    loop = _recurrent_body()
    for _ in range(20):
        _search_rec_mii(loop)


@functools.lru_cache(maxsize=None)
def _registry_loop(key: str):
    """A registry loop (``corpus:name``), built once per process."""
    machine = r8000()
    return resolve_loop(key, machine), machine


def _bnb_attempt(key: str, order: str, ii: int, paired: bool) -> None:
    """One fresh branch-and-bound attempt: a new ``_Attempt`` run, so the
    per-loop attempt memo never answers a repeat."""
    loop, machine = _registry_loop(key)
    priority = order_by_name(loop, machine, order)
    prepare_attempt(loop, machine, ii, priority)
    pairer = BankPairer(loop, ii, priority) if paired else None
    _Attempt(loop, machine, ii, priority, BnBConfig(), pairer).run()


def bench_bnb_search() -> None:
    """The II-search attempt shape that dominates an SGI corpus round: the
    19-op, divide-bound ``ora_trace`` under FDMS at its MinII of 82, which
    stops on the 400-backtrack budget (~100k placements)."""
    _bnb_attempt("spec92:ora/ora_trace", "FDMS", 82, paired=False)


def bench_bnb_paired() -> None:
    """A bank-repair attempt: ``lk09_predict`` under FDNMS with a
    :class:`BankPairer` at its SGI II of 6, also stopped by the
    400-backtrack budget."""
    _bnb_attempt("livermore:lk09_predict", "FDNMS", 6, paired=True)


@functools.lru_cache(maxsize=None)
def _result(name: str):
    """SGI's result for one Livermore kernel, computed once per process."""
    loop, machine = _registry_loop(f"livermore:{name}")
    return pipeline_loop(loop, machine)


def _schedule(name: str):
    schedule = _result(name).schedule
    return schedule, schedule.machine


def bench_regalloc_allocate() -> None:
    """Rename, build the interference graphs and colour a 90-range kernel,
    with the machine's register files and with 16-register files (which
    forces optimistic spill pushes)."""
    schedule, machine = _schedule("lk18_hydro2d")
    for fp_regs, int_regs in ((machine.fp_regs, machine.int_regs), (16, 16)):
        allocate(rename_kernel(schedule), fp_regs, int_regs)


def bench_sim_pipelined() -> None:
    """Banked-memory simulation of a 10-stream kernel over its 995 trips
    (all references direct: the steady state is fast-forwarded)."""
    schedule, machine = _schedule("lk07_eos")
    layout = DataLayout(schedule.loop, trip_count=schedule.loop.trip_count)
    simulate_pipelined(schedule, layout, machine)


def bench_sim_pipelined_indirect() -> None:
    """The same over 1,001 trips of a kernel with 3 hashed (indirect)
    streams, which the simulator walks trip by trip."""
    schedule, machine = _schedule("lk14_pic1d")
    layout = DataLayout(schedule.loop, trip_count=schedule.loop.trip_count)
    simulate_pipelined(schedule, layout, machine)


def bench_funcsim() -> None:
    """The oracle's functional check: sequential and pipelined runs of a
    14-reference kernel on one fresh layout, at the oracle's trip count."""
    result = _result("lk18_hydro2d")
    trips = min(64, max(12, 3 * result.schedule.n_stages))
    layout = DataLayout(result.loop, trip_count=trips)
    run_sequential(result.loop, layout, trips)
    run_pipelined(result.schedule, result.allocation, layout, trips)


def bench_oracle_verify() -> None:
    """The oracle's independent verification of the same kernel: schedule,
    allocation, banks and the emitted listing."""
    result = _result("lk18_hydro2d")
    emitted = emit_pipelined_code(result.schedule, result.allocation)
    verify_result(result, emitted=emitted, machine=result.schedule.machine)


def bench_emit() -> None:
    """Prologue, unrolled kernel and epilogue listing of the same kernel."""
    result = _result("lk18_hydro2d")
    emit_pipelined_code(result.schedule, result.allocation)


@functools.lru_cache(maxsize=None)
def _generated_result():
    """The portfolio's CP-only result for the 40-op recurrent body, as the
    e2e ``generated-cp`` workload schedules its loops; computed once per
    process."""
    scheduler = get_scheduler("portfolio")
    options = scheduler.options_from_dict({"backends": "cp", "max_nodes": 2000})
    return scheduler.run(_recurrent_body(), r8000(), options)


def bench_oracle_generated() -> None:
    """The whole oracle on that result: emission, independent verification
    and both functional runs on one fresh layout at the oracle's trip count."""
    result = _generated_result()
    emitted = emit_pipelined_code(result.schedule, result.allocation)
    verify_result(result, emitted=emitted, machine=result.schedule.machine)
    trips = min(64, max(12, 3 * result.schedule.n_stages))
    layout = DataLayout(result.loop, trip_count=trips)
    run_sequential(result.loop, layout, trips)
    run_pipelined(result.schedule, result.allocation, layout, trips)


@functools.lru_cache(maxsize=None)
def _cp_formulations():
    """The neutral formulations of ten seeded 38-op generated bodies (two
    recurrences, at most one divide) at MinII and MinII+1: 19 end ``sat``,
    ``rand7`` at II 21 ends ``unknown`` at the node budget.  Built once
    per process."""
    machine = r8000()
    config = GeneratorConfig(n_compute=38, n_streams=6, n_recurrences=2, p_fdiv=0.03)
    formulations = []
    for seed in range(10):
        loop = random_spec(seed, config).build(machine)
        mii = min_ii(loop, machine)
        formulations += [build_modulo_formulation(loop, machine, ii) for ii in (mii, mii + 1)]
    return formulations


def bench_cp_probe() -> None:
    """The portfolio's CP search on those formulations with the e2e
    ``generated-cp`` workload's 2,000-node budget per probe."""
    for formulation in _cp_formulations():
        solve_cp(formulation, max_nodes=2000)


BENCHES: Dict[str, Callable[[], None]] = {
    "mrt_fits_place_remove": bench_mrt_fits_place_remove,
    "scc_distances": bench_scc_distances,
    "rec_mii": bench_rec_mii,
    "bnb_search": bench_bnb_search,
    "bnb_paired": bench_bnb_paired,
    "regalloc_allocate": bench_regalloc_allocate,
    "sim_pipelined": bench_sim_pipelined,
    "sim_pipelined_indirect": bench_sim_pipelined_indirect,
    "funcsim": bench_funcsim,
    "oracle_verify": bench_oracle_verify,
    "emit": bench_emit,
    "oracle_generated": bench_oracle_generated,
    "cp_probe": bench_cp_probe,
}


def run_micro_bench(repeats: int = REPEATS) -> Dict[str, float]:
    """Best-of-``repeats`` wall-clock seconds per kernel."""
    results: Dict[str, float] = {}
    for name, fn in BENCHES.items():
        fn()  # warm import/lowering caches out of the measurement
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            if elapsed < best:
                best = elapsed
        results[name] = best
    return results


def build_report(benches: Dict[str, float]) -> Dict:
    import datetime

    from repro.exec.hashing import code_version
    from repro.obs.provenance import provenance

    return {
        "name": "micro",
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "code_version": code_version(),
        "provenance": provenance(),
        "machine": "r8000",
        "repeats": REPEATS,
        "benches": benches,
    }


def write_report(payload: Dict, path: pathlib.Path = OUTPUT_PATH) -> pathlib.Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def test_micro_hotpaths_within_baseline():
    """The perf gate: ``repro diff`` of the fresh run against the baseline."""
    fresh = build_report(run_micro_bench())
    write_report(fresh)
    diff = diff_reports(json.loads(BASELINE_PATH.read_text()), fresh)
    print(diff.formatted())
    for line in diff.warnings:
        warnings.warn(f"perf drift: {line}")
    assert diff.ok, "hot-path kernels regressed:\n" + "\n".join(diff.regressions)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update-baseline", action="store_true",
        help=f"write the fresh numbers to {BASELINE_PATH}",
    )
    parser.add_argument(
        "--repeats", type=int, default=REPEATS, metavar="N",
        help=f"repeats per kernel, best kept (default: {REPEATS})",
    )
    parser.add_argument(
        "--history-dir", default=None, metavar="DIR",
        help="also file the run in the repro.obs.history store "
        "(e.g. benchmarks/history); off by default",
    )
    args = parser.parse_args(argv)
    fresh = build_report(run_micro_bench(args.repeats))
    path = write_report(fresh)
    print(f"wrote {path}")
    if args.history_dir:
        from repro.obs.history import append_history

        record = append_history(fresh, history_dir=args.history_dir)
        print(f"history record {record}")
    for name, seconds in sorted(fresh["benches"].items()):
        print(f"  {name}: {seconds*1e3:.2f}ms")
    if args.update_baseline:
        write_report(fresh, BASELINE_PATH)
        print(f"baseline refreshed at {BASELINE_PATH}")
        return 0
    diff = diff_reports(json.loads(BASELINE_PATH.read_text()), fresh)
    print(diff.formatted())
    return 0 if diff.ok else 1


if __name__ == "__main__":
    sys.exit(main())
