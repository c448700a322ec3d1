"""A golden pin over the exec oracle: listing, diagnostics and funcsim verdict.

The oracle (``repro.exec.runner._apply_oracle``) is the only judge of a
cell: the independent verifier's report on the schedule, the allocation
and the emitted listing, then the pipelined functional run against the
sequential reference.  ``tests/golden/oracle_reports.json`` holds, per
cell, the sha256 of the emitted listing and everything the oracle wrote
into the cell's result, recorded before its kernels were rewritten for
speed, so every rewrite must reproduce them byte for byte.

Cells: the 24 Livermore kernels on ``sgi``, 30 seeded random loops on the
portfolio with CP alone (node-bounded, so the pin does not move with
machine load), and the ``sched-shift`` and ``reg-clobber`` faults of
:mod:`repro.fuzz.inject` on three loops, which make the checkers and the
functional run report.  A crash is pinned by its exception line alone:
the traceback's frames name the checkout's paths and source lines.

Re-record (only after an intended change to a verdict)::

    PYTHONPATH=src python tests/test_oracle_golden.py --update
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.exec.cells import Cell, CellResult, corpus_loop_keys, resolve_loop
from repro.exec.runner import MACHINE, _apply_oracle
from repro.fuzz.inject import corrupt_result
from repro.pipeline.emit import emit_pipelined_code
from repro.schedulers import get_scheduler
from repro.workloads.generators import GeneratorConfig, random_spec
from repro.workloads.mutate import spec_to_token

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "oracle_reports.json"

#: The layout seed of every cell's functional run.
SEED = 3
CP = {"backends": "cp", "max_nodes": 2000}
FAULT_LOOPS = ("livermore:lk01_hydro", "livermore:lk07_eos", "livermore:lk18_hydro2d")


def _generated_keys(n: int = 30) -> List[str]:
    """Random bodies of 4 to 40 compute ops, with and without recurrences
    and divides: the shapes of the e2e benchmark's generated workload."""
    keys = []
    for i in range(n):
        config = GeneratorConfig(
            n_compute=4 + (i * 13) % 37, n_streams=1 + i % 8, n_recurrences=i % 4,
            p_fdiv=0.03 if i % 2 else 0.0, trip_count=(16, 100, 512)[i % 3],
        )
        keys.append("fuzz:" + spec_to_token(random_spec(1000 + i, config, name=f"gold{i}")))
    return keys


#: (loop key, scheduler, options, injected fault or None) for every pinned cell.
CELLS: List[Tuple[str, str, Dict[str, Any], Optional[str]]] = [
    *((key, "sgi", {}, None) for key in corpus_loop_keys("livermore")),
    *((key, "portfolio", CP, None) for key in _generated_keys()),
    *((key, "sgi", {}, fault) for key in FAULT_LOOPS for fault in ("sched-shift", "reg-clobber")),
]


def cell_id(entry: Tuple[str, str, Dict[str, Any], Optional[str]]) -> str:
    key, scheduler, _, fault = entry
    loop = key.split(":", 1)[1]
    if key.startswith("fuzz:"):
        loop = "gen-" + hashlib.sha256(loop.encode()).hexdigest()[:12]
    return f"{loop}-{scheduler}" + (f"-{fault}" if fault else "")


def _crash_line(text: str) -> str:
    """``text`` with a traceback cut down to its last line, the exception."""
    head, marker, rest = text.partition("Traceback (most recent call last):")
    return head + rest.strip().splitlines()[-1] if marker else text


def run_once(entry: Tuple[str, str, Dict[str, Any], Optional[str]]) -> Dict[str, Any]:
    """Schedule a cell, corrupt it as the runner would, and pin what the
    oracle sees (the listing) and says (the result's oracle fields)."""
    key, name, options, fault = entry
    scheduler = get_scheduler(name)
    loop = resolve_loop(key, MACHINE)
    result = scheduler.run(loop, MACHINE, scheduler.options_from_dict(options))
    if fault:
        corrupt_result(result, fault)
    listing = None
    if result.success and result.allocation is not None and result.allocation.success:
        text = emit_pipelined_code(result.schedule, result.allocation).listing()
        listing = hashlib.sha256(text.encode()).hexdigest()
    cell = Cell.make(key, name, options, seed=SEED, oracle=True)
    out = CellResult(loop=key, scheduler=name)
    _apply_oracle(cell, result, MACHINE, out)
    return {
        "listing_sha256": listing,
        "verify_errors": [_crash_line(text) for text in out.verify_errors],
        "verify_warnings": out.verify_warnings,
        "funcsim_ok": out.funcsim_ok,
        "funcsim_detail": _crash_line(out.funcsim_detail),
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_pin_covers_every_cell(golden):
    assert sorted(golden) == sorted(cell_id(entry) for entry in CELLS)
    assert len(golden) == len(CELLS) == 24 + 30 + 6


def test_the_faults_make_the_oracle_report(golden):
    faulty = [golden[cell_id(entry)] for entry in CELLS if entry[3]]
    assert all(pin["verify_errors"] for pin in faulty)
    assert any(pin["funcsim_ok"] is False for pin in faulty)


def test_the_oracle_reproduces_the_golden_pin(golden):
    # One test over every cell: a parametrised test per cell would cost
    # more in collection and reporting than the 60 cells take to run.
    moved = [
        cell_id(entry)
        for entry in CELLS
        if run_once(entry) != golden[cell_id(entry)]
    ]
    assert not moved, f"oracle output moved on {len(moved)} cell(s): {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(f"usage: {sys.argv[0]} --update")
    GOLDEN.parent.mkdir(exist_ok=True)
    pinned = {cell_id(entry): run_once(entry) for entry in CELLS}
    # One cell per line, so a re-record diffs cell by cell.
    lines = [
        f"{json.dumps(key)}: {json.dumps(pinned[key], sort_keys=True)}" for key in sorted(pinned)
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"pinned {len(pinned)} cells in {GOLDEN}")
