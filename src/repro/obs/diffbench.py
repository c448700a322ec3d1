"""Attributed diffing of two BENCH_*.json runs.

Beyond "did quality regress?", this module aligns cells, computes
per-cell deltas over II, simulated cycles, registers, overhead, wall time
and obs counters, and *attributes* every changed cell to the input that
moved:

``identical-inputs``
    The two cells share a ``cache_key`` — the same cell fields and the
    same code.  Any timing delta is runner noise; any quality delta would
    be nondeterminism (and is still reported).
``options``
    Same (loop, scheduler), different ``options_json`` — the knobs moved.
``code``
    Same inputs otherwise, but the report-level ``code_version`` differs:
    the source the cells run changed.
``cell-fields``
    Same options and code version yet a different ``cache_key``: another
    field of the cell moved (its seed, trips, timeout or a flag).

Quality rules are strict, pairwise and machine-independent: a raised or
vanished II, a new timeout or fallback, a lost optimality proof, higher
simulated cycles, a disappeared cell, or a violation of the new run's
verdict (its ``totals.violations``, :mod:`repro.exec.verdict`) that the
old run lacks is a **regression**; a baseline without a verdict has no
violations.  Timing, latency and rate numbers
(schedule time, service latency, micro kernels) are judged by the one
regression policy in :mod:`repro.obs.trend` (``TOLERANCES``).
``python -m repro diff <old> <new> [--strict] [--trend]`` is the CLI.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..exec.verdict import format_violation
from .history import RunRecord
from .trend import TrendReport, build_trend, judge

#: Numeric per-cell fields worth a delta line in the report.
DELTA_FIELDS = (
    "ii",
    "min_ii",
    "registers_used",
    "overhead_cycles",
    "spill_rounds",
    "n_stages",
    "optimal",
    "schedule_seconds",
    "oracle_seconds",
    "wall_seconds",
)

#: The machine-dependent fields among them: a delta of these alone is noise.
TIMING_FIELDS = ("schedule_seconds", "oracle_seconds", "wall_seconds")


def load_bench(path, name: str = "pipeline") -> Dict[str, Any]:
    """Load one BENCH payload from a file or a directory.

    A directory is resolved to its ``BENCH_<name>.json`` (falling back to
    the single ``BENCH_*.json`` it contains, so ``repro diff
    benchmarks/baseline benchmarks/output`` just works).
    """
    path = pathlib.Path(path)
    if path.is_dir():
        candidate = path / f"BENCH_{name}.json"
        if not candidate.exists():
            matches = sorted(path.glob("BENCH_*.json"))
            if len(matches) != 1:
                raise FileNotFoundError(
                    f"{path} holds {len(matches)} BENCH_*.json files; "
                    f"expected {candidate.name} or exactly one"
                )
            candidate = matches[0]
        path = candidate
    return json.loads(path.read_text())


def _cell_key(cell: Mapping[str, Any]) -> Tuple[str, str, str]:
    return (cell["loop"], cell["scheduler"], cell.get("options_json", "{}"))


@dataclass
class CellDelta:
    """One aligned cell pair (or an unmatched cell) and what moved."""

    loop: str
    scheduler: str
    #: "regression" | "improvement" | "unchanged" | "noise" | "added" | "removed"
    status: str
    #: "identical-inputs" | "options" | "code" | "cell-fields" | "new" | "gone"
    cause: str
    deltas: Dict[str, Tuple[Any, Any]] = field(default_factory=dict)
    obs_deltas: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.loop} × {self.scheduler}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "loop": self.loop,
            "scheduler": self.scheduler,
            "status": self.status,
            "cause": self.cause,
            "deltas": {k: list(v) for k, v in self.deltas.items()},
            "obs_deltas": self.obs_deltas,
            "notes": self.notes,
        }


@dataclass
class BenchDiff:
    """The attributed comparison of two bench runs."""

    old_name: str
    new_name: str
    old_code_version: Optional[str]
    new_code_version: Optional[str]
    cells: List[CellDelta] = field(default_factory=list)
    regressions: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    infos: List[str] = field(default_factory=list)
    #: The history trend the timing verdicts came from (``--trend``).
    trend: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def by_cause(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for cell in self.cells:
            if cell.status in ("unchanged", "noise"):
                continue
            out[cell.cause] = out.get(cell.cause, 0) + 1
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "old": self.old_name,
            "new": self.new_name,
            "old_code_version": self.old_code_version,
            "new_code_version": self.new_code_version,
            "by_cause": self.by_cause,
            "regressions": self.regressions,
            "warnings": self.warnings,
            "infos": self.infos,
            "cells": [c.to_dict() for c in self.cells],
            "trend": self.trend,
        }

    def formatted(self, verbose: bool = False) -> str:
        lines: List[str] = []
        changed = [c for c in self.cells if c.status not in ("unchanged", "noise")]
        for line in self.infos:
            lines.append(f"info: {line}")
        for line in self.warnings:
            lines.append(f"WARNING: {line}")
        for line in self.regressions:
            lines.append(f"REGRESSION: {line}")
        if verbose or changed:
            for cell in self.cells:
                if not verbose and cell.status in ("unchanged", "noise"):
                    continue
                moved = ", ".join(
                    f"{name} {old} -> {new}"
                    for name, (old, new) in cell.deltas.items()
                )
                lines.append(
                    f"  {cell.label}: {cell.status} [{cell.cause}]"
                    + (f" {moved}" if moved else "")
                )
        if self.by_cause:
            lines.append(
                "changed cells by cause: "
                + ", ".join(f"{k}={v}" for k, v in sorted(self.by_cause.items()))
            )
        if self.ok and not self.warnings:
            lines.append(
                f"no regressions: {self.new_name} vs {self.old_name} "
                f"({len(self.cells)} aligned cells)"
            )
        return "\n".join(lines)


def _cause(old: Mapping[str, Any], new: Mapping[str, Any], code_changed: bool) -> str:
    if old.get("options_json", "{}") != new.get("options_json", "{}"):
        return "options"
    old_key, new_key = old.get("cache_key"), new.get("cache_key")
    if old_key and new_key and old_key == new_key:
        return "identical-inputs"
    if code_changed:
        return "code"
    return "cell-fields"


def _align(
    old_cells: Sequence[Mapping[str, Any]],
    new_cells: Sequence[Mapping[str, Any]],
) -> Tuple[List[Tuple[Mapping, Mapping]], List[Mapping], List[Mapping]]:
    """Pair cells: exact (loop, scheduler, options) first, then the
    (loop, scheduler) leftovers (an option-only change keeps its pair)."""
    old_by_key = {_cell_key(c): c for c in old_cells}
    new_by_key = {_cell_key(c): c for c in new_cells}
    pairs = [
        (old_by_key[k], new_by_key[k])
        for k in sorted(set(old_by_key) & set(new_by_key))
    ]
    old_rest = [old_by_key[k] for k in sorted(set(old_by_key) - set(new_by_key))]
    new_rest = [new_by_key[k] for k in sorted(set(new_by_key) - set(old_by_key))]

    def pair_key(cell: Mapping[str, Any]) -> Tuple[str, str]:
        return (cell["loop"], cell["scheduler"])

    new_by_pair: Dict[Tuple[str, str], List[Mapping]] = {}
    for cell in new_rest:
        new_by_pair.setdefault(pair_key(cell), []).append(cell)
    removed: List[Mapping] = []
    for cell in old_rest:
        bucket = new_by_pair.get(pair_key(cell))
        if bucket:
            pairs.append((cell, bucket.pop(0)))
        else:
            removed.append(cell)
    added = [c for bucket in new_by_pair.values() for c in bucket]
    return pairs, removed, added


def diff_reports(
    old: Mapping[str, Any],
    new: Mapping[str, Any],
    history: Optional[TrendReport] = None,
) -> BenchDiff:
    """Align and attribute two BENCH payloads.

    Timing verdicts come from :func:`repro.obs.trend.judge`: over
    ``history`` (stored runs ending with ``new``) when given, else over
    the two payloads.
    """
    diff = BenchDiff(
        old_name=old.get("name", "old"),
        new_name=new.get("name", "new"),
        old_code_version=old.get("code_version"),
        new_code_version=new.get("code_version"),
    )
    code_changed = diff.old_code_version != diff.new_code_version
    if code_changed:
        diff.infos.append(
            "code_version differs from baseline (expected after source "
            "changes; refresh the baseline when intentional)"
        )

    pairs, removed, added = _align(old.get("cells", []), new.get("cells", []))
    for cell in removed:
        delta = CellDelta(
            loop=cell["loop"], scheduler=cell["scheduler"],
            status="removed", cause="gone",
        )
        diff.cells.append(delta)
        diff.regressions.append(f"cell disappeared: {delta.label}")
    for cell in added:
        delta = CellDelta(
            loop=cell["loop"], scheduler=cell["scheduler"],
            status="added", cause="new",
        )
        diff.cells.append(delta)
        diff.infos.append(f"new cell (not in baseline): {delta.label}")

    for old_cell, new_cell in pairs:
        delta = _diff_cell(old_cell, new_cell, code_changed, diff)
        diff.cells.append(delta)

    # The verdict moved: a (cell, layer) the old run did not flag.
    old_verdict = _verdict(old)
    for key, violation in _verdict(new).items():
        if key not in old_verdict:
            diff.regressions.append(f"new violation: {format_violation(violation)}")
            for delta in diff.cells:
                if (delta.loop, delta.scheduler) == key[:2]:
                    delta.status = "regression"
                    delta.notes.append(f"new {violation['kind']} violation")

    if history is None:
        history = build_trend(diff.new_name, [
            RunRecord.of(old, diff.old_name), RunRecord.of(new, diff.new_name),
        ])
    else:
        diff.trend = history.to_dict()
    regressions, warnings = judge(history)
    diff.regressions.extend(regressions)
    diff.warnings.extend(warnings)
    diff.cells.sort(key=lambda c: (c.loop, c.scheduler))
    return diff


def _verdict(payload: Mapping[str, Any]) -> Dict[Tuple[str, str, str], Mapping[str, str]]:
    """A run's violations by (loop, scheduler, layer)."""
    return {(v["loop"], v["scheduler"], v["kind"]): v
            for v in payload.get("totals", {}).get("violations", [])}


def _diff_cell(
    old: Mapping[str, Any],
    new: Mapping[str, Any],
    code_changed: bool,
    diff: BenchDiff,
) -> CellDelta:
    delta = CellDelta(
        loop=new["loop"],
        scheduler=new["scheduler"],
        status="unchanged",
        cause=_cause(old, new, code_changed),
    )
    label = delta.label
    quality_regressed = False
    quality_improved = False

    for name in DELTA_FIELDS:
        old_v, new_v = old.get(name), new.get(name)
        if old_v != new_v:
            delta.deltas[name] = (old_v, new_v)
    if old.get("options_json", "{}") != new.get("options_json", "{}"):
        delta.deltas["options_json"] = (
            old.get("options_json"), new.get("options_json"),
        )

    # A cell with no schedule in either run is no regression: only an II
    # lost (a new None) or raised counts.
    old_ii, new_ii = old.get("ii"), new.get("ii")
    if old_ii is not None and (new_ii is None or new_ii > old_ii):
        diff.regressions.append(f"II regressed: {label} {old_ii} -> {new_ii}")
        quality_regressed = True
    elif old_ii is not None and new_ii < old_ii:
        diff.infos.append(f"II improved: {label} {old_ii} -> {new_ii}")
        quality_improved = True

    for flag in ("timeout", "fallback"):
        if new.get(flag) and not old.get(flag):
            diff.regressions.append(f"new {flag}: {label}")
            delta.deltas[flag] = (old.get(flag), new.get(flag))
            quality_regressed = True
        elif old.get(flag) and not new.get(flag):
            delta.notes.append(f"{flag} cleared")
            delta.deltas[flag] = (old.get(flag), new.get(flag))
            quality_improved = True
    if old.get("optimal") and not new.get("optimal"):
        diff.regressions.append(f"optimality proof lost: {label}")
        quality_regressed = True

    old_cycles = old.get("sim_cycles", {}) or {}
    new_cycles = new.get("sim_cycles", {}) or {}
    for trips in sorted(set(old_cycles) & set(new_cycles)):
        if new_cycles[trips] > old_cycles[trips]:
            diff.regressions.append(
                f"sim cycles regressed: {label} trips={trips} "
                f"{old_cycles[trips]:.0f} -> {new_cycles[trips]:.0f}"
            )
            delta.deltas[f"sim_cycles[{trips}]"] = (
                old_cycles[trips], new_cycles[trips],
            )
            quality_regressed = True
        elif new_cycles[trips] < old_cycles[trips]:
            quality_improved = True

    old_obs = old.get("obs", {}) or {}
    new_obs = new.get("obs", {}) or {}
    for name in sorted(set(old_obs) | set(new_obs)):
        moved = new_obs.get(name, 0) - old_obs.get(name, 0)
        if moved:
            delta.obs_deltas[name] = moved

    if quality_regressed:
        delta.status = "regression"
    elif quality_improved:
        delta.status = "improvement"
    elif delta.deltas:
        # Only machine-dependent fields moved (timings, or register/
        # overhead jitter without a cycle-count consequence).
        only_time = all(name in TIMING_FIELDS for name in delta.deltas)
        delta.status = "noise" if only_time and delta.cause == "identical-inputs" else "changed"
    if delta.status == "changed" and delta.cause == "identical-inputs":
        # Same inputs, different non-timing outputs: nondeterminism.
        diff.warnings.append(
            f"nondeterministic outputs for {label}: "
            + ", ".join(sorted(set(delta.deltas) - set(TIMING_FIELDS)))
        )
    return delta
