"""Attributed diffing of two BENCH_*.json runs.

Beyond "did quality regress?", this module aligns cells, computes
per-cell deltas over II, simulated cycles, registers, overhead, wall time
and obs counters, and *attributes* every changed cell to the input that
moved:

``identical-inputs``
    The two cells share a ``cache_key`` — same loop IR, same machine,
    same options, same code version.  Any timing delta is runner noise;
    any quality delta would be nondeterminism (and is still reported).
``options``
    Same (loop, scheduler), different ``options_json`` — the knobs moved.
``code``
    Same inputs otherwise, but the report-level ``code_version`` differs:
    the source of the result-bearing subpackages changed.
``ir-or-machine``
    Same options and code version yet a different ``cache_key``: the loop
    IR (or machine description) itself changed under the cell.

Quality rules are machine-independent: a raised or vanished II, a new
timeout/fallback/error, higher simulated cycles, or a disappeared cell is
a **regression**; per-scheduler schedule time is compared against a
generous tolerance and only ever warned about.  ``python -m repro diff <old> <new> [--strict]`` is the CLI.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

DEFAULT_TIME_TOLERANCE = 2.0

#: Service request latencies are millisecond-scale and dominated by event
#: loop and queueing noise, so their warn threshold is wider than the
#: schedule-time one.
SERVICE_LATENCY_TOLERANCE = 5.0

#: Numeric per-cell fields worth a delta line in the report.
DELTA_FIELDS = (
    "ii",
    "min_ii",
    "registers_used",
    "overhead_cycles",
    "spill_rounds",
    "n_stages",
    "schedule_seconds",
    "wall_seconds",
)


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
    #: "identical-inputs" | "options" | "code" | "ir-or-machine" | "new" | "gone"
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


def _number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _cause(old: Mapping[str, Any], new: Mapping[str, Any], code_changed: bool) -> str:
    if old.get("options_json", "{}") != new.get("options_json", "{}"):
        return "options"
    old_key, new_key = old.get("cache_key"), new.get("cache_key")
    if old_key and new_key and old_key == new_key:
        return "identical-inputs"
    if code_changed:
        return "code"
    return "ir-or-machine"


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
    time_tolerance: float = DEFAULT_TIME_TOLERANCE,
) -> BenchDiff:
    """Align and attribute two BENCH payloads."""
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

    _time_warnings(old, new, time_tolerance, diff)
    diff.cells.sort(key=lambda c: (c.loop, c.scheduler))
    return diff


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
    if new.get("error") and not old.get("error"):
        diff.regressions.append(f"new error: {label}")
        delta.deltas["error"] = (old.get("error"), new.get("error"))
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
        only_time = all(
            name in ("schedule_seconds", "wall_seconds")
            for name in delta.deltas
        )
        delta.status = "noise" if only_time and delta.cause == "identical-inputs" else "changed"
    if delta.status == "changed" and delta.cause == "identical-inputs":
        # Same inputs, different non-timing outputs: nondeterminism.
        diff.warnings.append(
            f"nondeterministic outputs for {label}: "
            + ", ".join(sorted(set(delta.deltas) - {"schedule_seconds", "wall_seconds"}))
        )
    return delta


def _time_warnings(
    old: Mapping[str, Any],
    new: Mapping[str, Any],
    time_tolerance: float,
    diff: BenchDiff,
) -> None:
    """Per-scheduler schedule time, warn-only (machines differ)."""
    old_by = (old.get("totals", {}) or {}).get("by_scheduler", {})
    new_by = (new.get("totals", {}) or {}).get("by_scheduler", {})
    for scheduler in sorted(set(old_by) & set(new_by)):
        old_t = old_by[scheduler].get("schedule_seconds", 0.0)
        new_t = new_by[scheduler].get("schedule_seconds", 0.0)
        if old_t > 0 and new_t > old_t * time_tolerance:
            diff.warnings.append(
                f"schedule time up {new_t / old_t:.1f}x for {scheduler}: "
                f"{old_t:.2f}s -> {new_t:.2f}s (tolerance {time_tolerance:.1f}x)"
            )

    # Service runs (BENCH_service.json) also carry request-latency
    # percentiles; latency is as machine-dependent as schedule time, so
    # the same warn-only treatment applies.
    old_svc = (old.get("totals", {}) or {}).get("service") or {}
    new_svc = (new.get("totals", {}) or {}).get("service") or {}
    old_lat = old_svc.get("latency_ms") or {}
    new_lat = new_svc.get("latency_ms") or {}
    latency_tolerance = max(time_tolerance, SERVICE_LATENCY_TOLERANCE)
    for name in ("p50_ms", "p99_ms"):
        old_v, new_v = old_lat.get(name), new_lat.get(name)
        if old_v and new_v and new_v > old_v * latency_tolerance:
            diff.warnings.append(
                f"service latency {name[:-3]} up {new_v / old_v:.1f}x: "
                f"{old_v:.1f}ms -> {new_v:.1f}ms "
                f"(tolerance {latency_tolerance:.1f}x)"
            )


def diff_paths(
    old_path,
    new_path,
    time_tolerance: float = DEFAULT_TIME_TOLERANCE,
    name: str = "pipeline",
) -> BenchDiff:
    """Diff two bench files (or directories holding them)."""
    return diff_reports(
        load_bench(old_path, name), load_bench(new_path, name), time_tolerance
    )


def apply_trend_gating(diff: BenchDiff, trend_report) -> Dict[str, Any]:
    """Upgrade warn-only timing deltas using the history trend layer.

    A pairwise timing delta is warn-only because two runs cannot tell
    noise from a real shift.  When the stored history classifies a
    timing/latency/rate series as a *step change that starts at the fresh
    run*, the evidence is no longer pairwise — that metric becomes a
    regression (gated by ``--strict`` exactly like quality fields).
    Bad-direction drifts and steps attributed to older runs stay
    warnings, since the fresh run did not introduce them.
    """
    fresh_index = len(trend_report.runs) - 1
    for entry in trend_report.regressions:
        if entry.kind == "quality":
            continue  # quality stays strict and pairwise in the diff itself
        commits = (
            f" (commits {entry.commit_range[0]}..{entry.commit_range[1]})"
            if entry.commit_range else ""
        )
        line = (
            f"trend {entry.verdict.classification}: {entry.metric} "
            f"{entry.verdict.detail}{commits}"
        )
        if (
            entry.verdict.classification == "step_change"
            and entry.verdict.changepoint == fresh_index
        ):
            diff.regressions.append(line + " — introduced by this run")
        else:
            diff.warnings.append(line)
    return trend_report.to_dict()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro diff <old> <new> [--strict] [--trend]``."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="repro diff",
        description="Attributed diff of two BENCH_*.json runs",
    )
    parser.add_argument("old", help="baseline bench json (file or directory)")
    parser.add_argument("new", help="fresh bench json (file or directory)")
    parser.add_argument(
        "--name", default="pipeline",
        help="which BENCH_<name>.json to resolve when old/new are "
        "directories (default: pipeline; e.g. 'service')",
    )
    parser.add_argument(
        "--time-tolerance", type=float, default=DEFAULT_TIME_TOLERANCE,
        help="per-scheduler schedule-time ratio that triggers a warning "
        f"(default: {DEFAULT_TIME_TOLERANCE})",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 on quality regressions (default: warn only)",
    )
    parser.add_argument(
        "--trend", action="store_true",
        help="judge the fresh run against the stored run history too: a "
        "timing/latency step change starting at this run is escalated "
        "from warning to regression",
    )
    parser.add_argument(
        "--history-dir", default=None, metavar="DIR",
        help="run-history root for --trend (default: benchmarks/history)",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="list every aligned cell, changed or not",
    )
    parser.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="write the full diff as JSON to this path ('-' for stdout)",
    )
    args = parser.parse_args(argv)

    new_payload = load_bench(args.new, args.name)
    diff = diff_reports(
        load_bench(args.old, args.name), new_payload, args.time_tolerance
    )
    trend_dict = None
    if args.trend:
        from .history import DEFAULT_HISTORY_DIR
        from .trend import trend_with_payload

        history_dir = args.history_dir or DEFAULT_HISTORY_DIR
        trend = trend_with_payload(args.name, new_payload, history_dir=history_dir)
        trend_dict = apply_trend_gating(diff, trend)

    payload = diff.to_dict()
    if trend_dict is not None:
        payload["trend"] = trend_dict
    if args.json_out == "-":
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(diff.formatted(verbose=args.verbose))
        if args.json_out:
            pathlib.Path(args.json_out).write_text(
                json.dumps(payload, indent=1, sort_keys=True) + "\n"
            )
    if diff.regressions and args.strict:
        return 1
    if diff.regressions:
        print(
            f"({len(diff.regressions)} regressions; warn-only, pass --strict to fail)",
            file=sys.stderr if args.json_out == "-" else sys.stdout,
        )
    return 0
