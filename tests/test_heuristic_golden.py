"""A golden pin over both heuristic drivers: full results, seconds left out.

SGI and Rau94 answer an allocation failure with the same spill policy.
``tests/golden/heuristic_drivers.json`` holds what both drivers returned
before they shared one spill loop: II, issue times and producer, the
winning order, the spilled values and rounds, both register assignments,
the search effort and the final round's II trail.  Every number here is
decided by search effort alone, so the pin does not move with machine load.

The loops cover every Livermore and recbound kernel, one spec92 loop that
spills once, and seeded random loops.  Pinned spill histories: Rau94
spills 7 values on ``lk09_predict`` and SGI runs 2 spill rounds on
``rb_reg_farm``.

Re-record (only after an intended change to a result)::

    PYTHONPATH=src python tests/test_heuristic_golden.py --update
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Dict, List, Tuple

import pytest

from repro.exec.cells import corpus_loop_keys, resolve_loop
from repro.ir.loop import Loop
from repro.machine.descriptions import r8000
from repro.schedulers import get_scheduler
from repro.workloads.generators import GeneratorConfig, random_spec

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "heuristic_drivers.json"

SCHEDULERS = ("sgi", "rau")
#: Of spec92 only ``fpppp_integrals``, where SGI spills once: the whole
#: corpus costs seconds (SGI takes 0.6-1.1 s on each of ``mdljdp2_force``
#: and ``tomcatv_main`` alone).
KEYS: Tuple[str, ...] = (
    *corpus_loop_keys("livermore"),
    *corpus_loop_keys("recbound"),
    "spec92:fpppp/fpppp_integrals",
)
N_RANDOM = 20


def _random_loop(i: int) -> Loop:
    """A seeded random body of 6 to 40 compute ops, with and without
    recurrences and divides."""
    config = GeneratorConfig(
        n_compute=6 + (i * 11) % 35, n_streams=1 + i % 7, n_recurrences=i % 3,
        p_fdiv=0.03 if i % 2 else 0.0, trip_count=(16, 100, 512)[i % 3],
    )
    return random_spec(4000 + i, config, name=f"heur{i}").build()


def loop_ids() -> List[str]:
    return [key.split(":", 1)[1] for key in KEYS] + [f"random{i}" for i in range(N_RANDOM)]


def build_loop(loop_id: str) -> Loop:
    if loop_id.startswith("random"):
        return _random_loop(int(loop_id[len("random"):]))
    return resolve_loop(next(key for key in KEYS if key.split(":", 1)[1] == loop_id), r8000())


RUNS: List[Tuple[str, str]] = [(loop_id, name) for loop_id in loop_ids() for name in SCHEDULERS]


def run_id(run: Tuple[str, str]) -> str:
    return f"{run[0]}-{run[1]}"


def summary(result: Any) -> Dict[str, Any]:
    """Everything a result says about its schedule and search, minus time."""
    schedule, allocation, stats = result.schedule, result.allocation, result.stats
    return {
        "success": result.success,
        "ii": result.ii,
        "min_ii": result.min_ii,
        "producer": schedule.producer if schedule is not None else None,
        "times": sorted(schedule.times.items()) if schedule is not None else None,
        "order_name": result.order_name,
        "spilled": list(result.spilled),
        "spill_rounds": result.spill_rounds,
        "loop_ops": result.loop.n_ops,
        "allocation": None if allocation is None else {
            "kmin": allocation.kmin,
            "fp": sorted(allocation.fp_assignment.items()),
            "int": sorted(allocation.int_assignment.items()),
        },
        "stats": [stats.attempts, stats.placements, stats.backtracks, stats.evictions],
        "attempted": [
            [a.ii, a.phase, a.success, a.placements, a.backtracks, a.stop,
             a.allocated, a.uncolored]
            for a in result.attempted
        ],
    }


def run_once(run: Tuple[str, str]) -> Dict[str, Any]:
    loop_id, name = run
    machine = r8000()
    scheduler = get_scheduler(name)
    loop = build_loop(loop_id)
    return summary(scheduler.run(loop, machine, scheduler.options_from_dict({})))


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_pin_covers_every_run(golden):
    assert sorted(golden) == sorted(run_id(run) for run in RUNS)


def test_the_pin_holds_repeated_spilling(golden):
    assert len(golden["lk09_predict-rau"]["spilled"]) > 1
    assert golden["rb_reg_farm-sgi"]["spill_rounds"] > 1


@pytest.mark.parametrize("run", RUNS, ids=run_id)
def test_heuristic_drivers_reproduce_the_golden_pin(run, golden):
    # JSON round trip: tuples become lists, int keys stay in their pairs.
    assert json.loads(json.dumps(run_once(run))) == golden[run_id(run)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(f"usage: {sys.argv[0]} --update")
    GOLDEN.parent.mkdir(exist_ok=True)
    pinned = {run_id(run): run_once(run) for run in RUNS}
    # One run per line, so a re-record diffs run by run.
    lines = [
        f"{json.dumps(key)}: {json.dumps(pinned[key], sort_keys=True)}" for key in sorted(pinned)
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"pinned {len(pinned)} runs in {GOLDEN}")
