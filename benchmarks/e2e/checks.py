"""What makes a run valid, and what makes one compiled loop wrong.

Two kinds of finding, kept apart on purpose:

* a *run error* (:class:`RunError`) means the run measured something other
  than the workload -- a solve stopped by the wall clock, a cell deadline
  fallback, results that differ between rounds, a refused request.  The
  run exits non-zero, names the cell, and prints no result;
* a *failed cell* means the program produced wrong or no code: an error,
  an independent-verifier error, or a functional-simulation mismatch.
  Failures are counted against the cells attempted and listed per cell,
  and the run still reports its measurements.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.exec import runner
from repro.exec.cells import resolve_loop
from repro.sim import functional
from repro.workloads.mutate import spec_from_token

from .stats import geomean

#: The result fields that must repeat exactly between rounds of one run:
#: the schedule's quality and the checkers' verdicts on it.
QUALITY_FIELDS = ("success", "ii", "optimal", "producer", "sim_cycles",
                  "verify_errors", "funcsim_ok")


class RunError(Exception):
    """The run is invalid; the message names the cell."""


def label(key: str) -> str:
    """A short printable name for a loop key (``fuzz:`` tokens are long)."""
    if not key.startswith("fuzz:"):
        return key
    return f"fuzz:{spec_from_token(key[5:]).name}"


def check_repeat(key: str, first: Mapping[str, Any], again: Mapping[str, Any]) -> None:
    """Raise when a cell's quality fields moved between rounds."""
    for name in QUALITY_FIELDS:
        if first[name] != again[name]:
            raise RunError(f"{label(key)}: {name} changed between rounds "
                           f"({first[name]!r} -> {again[name]!r})")


def check_budgets(key: str, result: Mapping[str, Any], cp_max_nodes: int) -> None:
    """Raise on a deadline fallback or a CP probe stopped by the wall clock."""
    if result["timeout"]:
        raise RunError(f"{label(key)}: cell deadline fallback")
    for probe in result["backend_probes"]:
        if probe["answer"] == "unknown" and probe["nodes"] < cp_max_nodes:
            raise RunError(f"{label(key)}: {probe['backend']} probe at II={probe['ii']} "
                           f"stopped by the wall clock after {probe['nodes']} nodes")


def problems(result: Mapping[str, Any]) -> List[str]:
    """Why a cell's output is wrong or missing (empty when it is right)."""
    if result.get("error"):
        return ["error: " + result["error"].strip().splitlines()[-1]]
    found = []
    if not result["success"]:
        found.append("no schedule")
    found += [f"verify: {message}" for message in result["verify_errors"]]
    if result["funcsim_ok"] is False:
        found.append(f"funcsim: {result['funcsim_detail']}")
    return found


def proven_optimal(result: Mapping[str, Any]) -> bool:
    """II-optimality proven: by the solver, or by meeting a certified lower bound."""
    bound = result.get("refined_bound") or result["min_ii"]
    return bool(result["optimal"]) or result["ii"] == bound


def quality_metrics(results: Sequence[Tuple[str, Mapping[str, Any]]]
                    ) -> Dict[str, Tuple[float, None, int]]:
    """ii_over_minii, code_cycles_ratio and optimal_share over one result per
    loop, as ``(value, None, samples)``; loops without a schedule count
    against ``optimal_share`` only."""
    done = [(key, r) for key, r in results if r["success"]]
    cycles = [r["sim_cycles"]["default"] / (resolve_loop(key).trip_count * r["min_ii"])
              for key, r in done]
    return {
        "ii_over_minii": (geomean([r["ii"] / r["min_ii"] for _, r in done]), None, len(done)),
        "code_cycles_ratio": (geomean(cycles), None, len(done)),
        "optimal_share": (sum(proven_optimal(r) for _, r in done) / len(results), None,
                          len(results)),
    }


def _bits(values: Mapping[Any, float]) -> Dict[Any, bytes]:
    return {key: struct.pack("<d", value) for key, value in values.items()}


def _bitwise_matches(self: Any, other: Any) -> bool:
    return (_bits(self.memory) == _bits(other.memory)
            and _bits(self.live_out) == _bits(other.live_out))


def funcsim_agrees_bitwise(spec: Mapping[str, Any]) -> bool:
    """Re-run a cell whose functional check failed, comparing bit patterns.

    ``repro.sim.functional.ExecutionResult.matches`` compares floats with
    ``==``, and NaN is unequal to itself: a loop whose values overflow to
    NaN fails the check even when both executions computed the same bits.
    Such cells are reported apart (``oracle_nan``), not as wrong code.
    """
    original = functional.ExecutionResult.matches
    functional.ExecutionResult.matches = _bitwise_matches
    try:
        return runner.execute_cell(dict(spec), in_worker=False)["funcsim_ok"] is True
    finally:
        functional.ExecutionResult.matches = original


def classify(spec: Mapping[str, Any], result: Mapping[str, Any]) -> Tuple[List[str], bool]:
    """``(problems, nan_only)`` for one cell's result: a failed functional
    simulation is re-checked bitwise, and dropped from the problems when
    the two executions agree bit for bit (``nan_only``)."""
    found = problems(result)
    if result["funcsim_ok"] is False and funcsim_agrees_bitwise(spec):
        return [p for p in found if not p.startswith("funcsim:")], True
    return found, False
