"""A golden pin over both optimal drivers: full results, seconds left out.

MOST and the portfolio are one walk over one formulation with two default
sets.  ``tests/golden/optimal_drivers.json`` holds what both drivers
returned on a few Livermore kernels before they shared one body: II,
issue times, buffers, optimality, fallback, the winning backend and the
whole probe trail.  Every run is node- or answer-bounded well inside its
wall-clock budget, so the pin does not move with machine load.

Re-record (only after an intended change to a result)::

    PYTHONPATH=src python tests/test_optimal_golden.py --update
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Dict, List, Tuple

import pytest

from repro.exec.cells import resolve_loop
from repro.machine.descriptions import r8000
from repro.schedulers import get_scheduler

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "optimal_drivers.json"

LOOPS = ("livermore:lk01_hydro", "livermore:lk05_tridiag", "livermore:lk13_pic2d")
_MOST = {"time_limit": 20.0, "engine": "scipy"}

#: (loop, scheduler, options) for every pinned run.  lk07_eos on ``bnb`` is
#: left out: its stage 2 stops on the wall clock.
RUNS: List[Tuple[str, str, Dict[str, Any]]] = [
    *(
        (key, "most", {**_MOST, **extra})
        for key in LOOPS
        for extra in ({}, {"integrated": True}, {"objective": "overhead"})
    ),
    ("livermore:lk01_hydro", "most", {"time_limit": 20.0, "engine": "bnb"}),
    *(
        (key, "portfolio", options)
        for key in (*LOOPS, "livermore:lk18_hydro2d")
        for options in ({}, {"cross_check": True}, {"backends": "cp"})
    ),
]


def run_id(run: Tuple[str, str, Dict[str, Any]]) -> str:
    key, scheduler, options = run
    return f"{key.split(':')[1]}-{scheduler}-{json.dumps(options, sort_keys=True)}"


def summary(result: Any) -> Dict[str, Any]:
    """Everything a result says about its schedule and search, minus time."""
    schedule = result.schedule
    return {
        "success": result.success,
        "ii": result.ii,
        "min_ii": result.min_ii,
        "producer": schedule.producer if schedule is not None else None,
        "times": sorted(schedule.times.items()) if schedule is not None else None,
        "buffers": result.buffers,
        "optimal": result.optimal,
        "fallback_used": result.fallback_used,
        "winning_backend": result.winning_backend,
        "skipped_backends": list(result.skipped_backends),
        "disagreements": list(result.disagreements),
        "stats": [result.stats.solves, result.stats.nodes, result.stats.ii_attempts],
        "probes": [
            [p.ii, p.backend, p.answer, p.nodes, p.witness_ok, p.allocated, p.uncolored]
            for p in result.probes
        ],
    }


def run_once(run: Tuple[str, str, Dict[str, Any]]) -> Dict[str, Any]:
    key, name, options = run
    machine = r8000()
    scheduler = get_scheduler(name)
    loop = resolve_loop(key, machine)
    return summary(scheduler.run(loop, machine, scheduler.options_from_dict(options)))


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_pin_covers_every_run(golden):
    assert sorted(golden) == sorted(run_id(run) for run in RUNS)


@pytest.mark.parametrize("run", RUNS, ids=run_id)
def test_optimal_drivers_reproduce_the_golden_pin(run, golden):
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
