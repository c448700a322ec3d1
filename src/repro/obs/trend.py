"""Statistical trend detection over the run-history store.

Where :mod:`repro.obs.diffbench` answers "did these two runs differ?",
this module answers the longitudinal question: across the last N stored
runs, is each metric series **stable**, **noisy**, **drifting**, or did
it take a **step change** — and if it stepped, at which run, i.e. which
commit range is responsible?

Classification per series (:func:`classify_series`):

``step_change``
    The best split of the series into a before/after pair shows a median
    shift of at least ``STEP_REL`` (30%) that is statistically credible —
    a significant Mann-Whitney test, or complete separation (|Cliff's
    delta| = 1) when the samples are too small for p < α to be reachable
    at all — and the jump is concentrated at the split boundary.  The
    changepoint index maps to the commit range between the two runs.
``drift``
    No single credible step, but the series is strongly monotone in time
    (|Kendall τ| ≥ 0.7) and has moved at least ``DRIFT_REL`` (25%) end
    to end.  Pure noise cannot reach both gates at once.
``noisy``
    Neither of the above, with a coefficient of variation above
    ``NOISE_CV`` (10%) — real scatter, no direction.
``stable``
    Everything else, including series too short to judge (< 4 runs).

Timing/latency series going *up* and quality series (II) going anywhere
but down are regressions; ``repro trend <name> --check`` exits non-zero
on any, and ``repro diff --trend`` escalates a warn-only timing delta to
a regression when the trend layer confirms the fresh run starts a step.
"""

from __future__ import annotations

import json
import pathlib
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .history import DEFAULT_HISTORY_DIR, HistoryStore, RunRecord
from .stats import (
    bootstrap_ci,
    cliffs_delta,
    kendall_tau,
    mann_whitney_u,
    mean,
    median,
    stdev,
)

#: Classification thresholds — module constants so tests and docs can
#: reference the exact gates.
MIN_RUNS = 4          # fewer stored runs than this → "stable" (insufficient)
ALPHA = 0.05          # two-sided Mann-Whitney significance
STEP_REL = 0.30       # relative median shift that counts as a step
STEP_CONCENTRATION = 0.5  # fraction of the shift the boundary jump must carry
DRIFT_TAU = 0.7       # |Kendall tau| gate for drift
DRIFT_REL = 0.25      # end-to-end relative change gate for drift
NOISE_CV = 0.10       # coefficient of variation above which a flat series is "noisy"

CLASSES = ("stable", "noisy", "drift", "step_change")

_EPS = 1e-12


@dataclass
class SeriesVerdict:
    """What one metric series is doing over time."""

    classification: str                 # one of CLASSES
    changepoint: Optional[int] = None   # run index of the first post-step run
    p_value: Optional[float] = None
    effect: Optional[float] = None      # Cliff's delta across the best split
    rel_change: Optional[float] = None  # relative median shift (step) or end-to-end (drift)
    direction: Optional[str] = None     # "up" | "down"
    detail: str = ""
    pre_ci: Optional[Tuple[float, float]] = None
    post_ci: Optional[Tuple[float, float]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "classification": self.classification,
            "changepoint": self.changepoint,
            "p_value": self.p_value,
            "effect": self.effect,
            "rel_change": self.rel_change,
            "direction": self.direction,
            "detail": self.detail,
            "pre_ci": list(self.pre_ci) if self.pre_ci else None,
            "post_ci": list(self.post_ci) if self.post_ci else None,
        }


def classify_series(
    values: Sequence[Optional[float]],
    alpha: float = ALPHA,
    min_runs: int = MIN_RUNS,
    step_rel: float = STEP_REL,
    drift_tau: float = DRIFT_TAU,
    drift_rel: float = DRIFT_REL,
    noise_cv: float = NOISE_CV,
) -> SeriesVerdict:
    """Classify one metric series (None entries are missing runs)."""
    points = [(i, float(v)) for i, v in enumerate(values) if v is not None]
    vals = [v for _, v in points]
    n = len(vals)
    if n < min_runs:
        return SeriesVerdict(
            "stable", detail=f"insufficient history ({n} of {min_runs} runs)"
        )
    if max(vals) == min(vals):
        return SeriesVerdict("stable", detail="constant")

    # Best before/after split: maximise separation, break ties towards
    # the split the rank test finds most credible, then shift size.  The
    # right side may be a single run — that is exactly the "fresh run
    # introduced a step" case ``repro diff --trend`` gates on.
    def split_score(k: int) -> Tuple[float, float, float]:
        delta = cliffs_delta(vals[:k], vals[k:]) or 0.0
        rel = (median(vals[k:]) - median(vals[:k])) / max(abs(median(vals[:k])), _EPS)
        p = mann_whitney_u(vals[:k], vals[k:]).p_value
        return (abs(delta), -(p if p is not None else 1.0), abs(rel))

    # The first best-scoring split (max keeps the earliest of equals).
    k = max(range(2, n), key=split_score)
    left, right = vals[:k], vals[k:]
    delta = cliffs_delta(left, right) or 0.0
    pre_med, post_med = median(left), median(right)
    rel = (post_med - pre_med) / max(abs(pre_med), _EPS)
    mwu = mann_whitney_u(left, right)
    significant = mwu.p_value is not None and mwu.p_value < alpha
    separated = abs(delta) >= 1.0 - _EPS

    if abs(rel) >= step_rel and (significant or separated):
        shift = post_med - pre_med
        jump = vals[k] - vals[k - 1]
        concentrated = shift != 0 and jump / shift >= STEP_CONCENTRATION
        if concentrated:
            return SeriesVerdict(
                "step_change",
                changepoint=points[k][0],
                p_value=mwu.p_value,
                effect=delta,
                rel_change=rel,
                direction="up" if rel > 0 else "down",
                detail=(
                    f"median {pre_med:.4g} -> {post_med:.4g} "
                    f"({rel:+.0%}) at run {points[k][0]}"
                ),
                pre_ci=bootstrap_ci(left),
                post_ci=bootstrap_ci(right),
            )

    tau = kendall_tau(vals) or 0.0
    end_rel = (median(vals[-2:]) - median(vals[:2])) / max(abs(median(vals[:2])), _EPS)
    if abs(tau) >= drift_tau and abs(end_rel) >= drift_rel:
        return SeriesVerdict(
            "drift",
            p_value=mwu.p_value,
            effect=delta,
            rel_change=end_rel,
            direction="up" if end_rel > 0 else "down",
            detail=f"monotone (tau {tau:+.2f}), {end_rel:+.0%} end to end",
            pre_ci=bootstrap_ci(left),
            post_ci=bootstrap_ci(right),
        )

    mu = mean(vals)
    cv = stdev(vals) / max(abs(mu), _EPS)
    if cv > noise_cv:
        return SeriesVerdict(
            "noisy",
            p_value=mwu.p_value,
            effect=delta,
            rel_change=rel,
            detail=f"cv {cv:.0%} with no credible direction",
            pre_ci=bootstrap_ci(vals),
        )
    return SeriesVerdict(
        "stable",
        p_value=mwu.p_value,
        effect=delta,
        rel_change=rel,
        detail=f"cv {cv:.0%}",
        pre_ci=bootstrap_ci(vals),
    )


# ---------------------------------------------------------------------------
# Metric-series extraction from stored runs.
# ---------------------------------------------------------------------------


@dataclass
class MetricTrend:
    """One metric's series across the stored runs, with its verdict."""

    metric: str
    kind: str            # "timing" | "quality" | "latency" | "rate"
    bad_direction: str   # which direction is a regression
    values: List[Optional[float]]
    verdict: SeriesVerdict
    commit_range: Optional[Tuple[str, str]] = None  # (sha before, sha after)

    @property
    def moved(self) -> bool:
        return self.verdict.classification in ("drift", "step_change")

    @property
    def regression(self) -> bool:
        return self.moved and self.verdict.direction == self.bad_direction

    @property
    def improvement(self) -> bool:
        return self.moved and self.verdict.direction not in (None, self.bad_direction)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "kind": self.kind,
            "bad_direction": self.bad_direction,
            "values": self.values,
            "verdict": self.verdict.to_dict(),
            "commit_range": list(self.commit_range) if self.commit_range else None,
            "regression": self.regression,
            "improvement": self.improvement,
        }


def _totals(run: RunRecord) -> Mapping[str, Any]:
    return run.payload.get("totals") or {}


def collect_metric_series(
    runs: Sequence[RunRecord],
) -> List[Tuple[str, str, str, List[Optional[float]]]]:
    """(metric, kind, bad_direction, values) for every tracked series."""
    series: List[Tuple[str, str, str, List[Optional[float]]]] = []

    schedulers = sorted({
        s for run in runs for s in (_totals(run).get("by_scheduler") or {})
    })
    for sched in schedulers:
        vals = [
            ((_totals(run).get("by_scheduler") or {}).get(sched) or {}).get("schedule_seconds")
            for run in runs
        ]
        series.append((f"{sched} total schedule_seconds", "timing", "up", vals))

    # Per-cell II and schedule time, aligned on (loop, scheduler).
    indexed: List[Dict[Tuple[str, str], Mapping[str, Any]]] = []
    keys: List[Tuple[str, str]] = []
    seen = set()
    for run in runs:
        table: Dict[Tuple[str, str], Mapping[str, Any]] = {}
        for cell in run.payload.get("cells") or []:
            loop, sched = cell.get("loop"), cell.get("scheduler")
            if not loop or not sched:
                continue
            table.setdefault((loop, sched), cell)
            if (loop, sched) not in seen:
                seen.add((loop, sched))
                keys.append((loop, sched))
        indexed.append(table)
    for loop, sched in sorted(keys):
        cells = [table.get((loop, sched)) for table in indexed]
        series.append((
            f"{loop} × {sched} II", "quality", "up",
            [None if c is None else c.get("ii") for c in cells],
        ))
        series.append((
            f"{loop} × {sched} schedule_seconds", "timing", "up",
            [None if c is None else c.get("schedule_seconds") for c in cells],
        ))

    # Service latency percentiles and the cache hit rate.
    if any(_totals(run).get("service") for run in runs):
        for name in ("p50_ms", "p99_ms"):
            vals = [
                ((_totals(run).get("service") or {}).get("latency_ms") or {}).get(name)
                for run in runs
            ]
            series.append((f"service latency {name}", "latency", "up", vals))
        series.append((
            "service hit_rate", "rate", "down",
            [(_totals(run).get("service") or {}).get("hit_rate") for run in runs],
        ))

    # Micro hot-path kernels (BENCH_micro: flat name -> best seconds).
    benches = sorted({b for run in runs for b in (run.payload.get("benches") or {})})
    for bench in benches:
        vals = [(run.payload.get("benches") or {}).get(bench) for run in runs]
        series.append((f"micro {bench} seconds", "timing", "up", vals))
    return series


@dataclass
class TrendReport:
    """Every tracked metric of one history name, classified."""

    name: str
    runs: List[RunRecord]
    entries: List[MetricTrend]

    @property
    def regressions(self) -> List[MetricTrend]:
        return [e for e in self.entries if e.regression]

    @property
    def improvements(self) -> List[MetricTrend]:
        return [e for e in self.entries if e.improvement]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def by_class(self) -> Dict[str, int]:
        out = {cls: 0 for cls in CLASSES}
        for entry in self.entries:
            out[entry.verdict.classification] += 1
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "runs": [run.meta() for run in self.runs],
            "by_class": self.by_class(),
            "ok": self.ok,
            "entries": [e.to_dict() for e in self.entries],
        }

    def formatted(self, verbose: bool = False) -> str:
        lines: List[str] = []
        span = ""
        if self.runs:
            first, last = self.runs[0], self.runs[-1]
            span = f" ({first.sha12} .. {last.sha12})"
        lines.append(
            f"{self.name}: {len(self.runs)} stored runs{span}, "
            f"{len(self.entries)} metric series"
        )
        if len(self.runs) < MIN_RUNS:
            lines.append(
                f"  fewer than {MIN_RUNS} runs — trend verdicts default to "
                "'stable' until more history accumulates"
            )
        counts = self.by_class()
        lines.append(
            "  " + ", ".join(f"{cls}: {counts[cls]}" for cls in CLASSES)
        )
        for entry in self.entries:
            verdict = entry.verdict
            if not verbose and verdict.classification == "stable":
                continue
            flag = ""
            if entry.regression:
                flag = "  REGRESSION"
            elif entry.improvement:
                flag = "  improvement"
            commits = (
                f" commits {entry.commit_range[0]}..{entry.commit_range[1]}"
                if entry.commit_range else ""
            )
            p = "-" if verdict.p_value is None else f"{verdict.p_value:.3f}"
            lines.append(
                f"  {verdict.classification:<12} {entry.metric}: "
                f"{verdict.detail} [p={p}]{commits}{flag}"
            )
        if self.ok:
            lines.append("no trend regressions")
        else:
            lines.append(f"{len(self.regressions)} trend regressions")
        return "\n".join(lines)


def build_trend(name: str, runs: Sequence[RunRecord], **thresholds) -> TrendReport:
    """Classify every tracked metric series of ``runs``."""
    runs = list(runs)
    entries: List[MetricTrend] = []
    for metric, kind, bad, values in collect_metric_series(runs):
        verdict = classify_series(values, **thresholds)
        commit_range = None
        cp = verdict.changepoint
        if cp is not None and 0 < cp < len(runs):
            commit_range = (runs[cp - 1].sha12, runs[cp].sha12)
        entries.append(MetricTrend(
            metric=metric, kind=kind, bad_direction=bad,
            values=values, verdict=verdict, commit_range=commit_range,
        ))
    return TrendReport(name=name, runs=runs, entries=entries)


def trend_report(
    name: str,
    history_dir=DEFAULT_HISTORY_DIR,
    last: Optional[int] = 20,
    **thresholds,
) -> TrendReport:
    """The trend report over the stored history of ``name``."""
    store = HistoryStore(history_dir)
    return build_trend(name, store.runs(name, last=last), **thresholds)


def trend_with_payload(
    name: str,
    payload: Mapping[str, Any],
    history_dir=DEFAULT_HISTORY_DIR,
    last: Optional[int] = 20,
    **thresholds,
) -> TrendReport:
    """Trend over stored history plus one fresh (unfiled) payload.

    ``repro diff --trend`` uses this to judge the run being diffed as the
    newest point of the series without committing it to the store first.
    """
    store = HistoryStore(history_dir)
    runs = store.runs(name, last=None)
    prov = payload.get("provenance") or {}
    fresh = RunRecord(
        name=name,
        path=pathlib.Path("<fresh>"),
        created_at=payload.get("created_at"),
        git_sha=prov.get("git_sha"),
        code_version=payload.get("code_version"),
        host_fingerprint=prov.get("host_fingerprint"),
        payload=dict(payload),
    )
    runs = runs + [fresh]
    if last is not None and last > 0:
        runs = runs[-last:]
    return build_trend(name, runs, **thresholds)


# ---------------------------------------------------------------------------
# History panel data for the HTML dashboard.
# ---------------------------------------------------------------------------

#: Cell-level series are only surfaced in the dashboard when they moved;
#: totals/service/micro series always are.  This caps the panel's size.
_PANEL_SUMMARY_KINDS = ("latency", "rate")


def history_panel_data(
    history_dir=DEFAULT_HISTORY_DIR,
    names: Sequence[str] = ("pipeline", "service", "micro"),
    last: Optional[int] = 20,
    max_rows: int = 60,
) -> Dict[str, Any]:
    """Render-ready history series + verdicts for ``repro report``."""
    store = HistoryStore(history_dir)
    histories: List[Dict[str, Any]] = []
    for name in names:
        runs = store.runs(name, last=last)
        if not runs:
            continue
        report = build_trend(name, runs)
        rows: List[Dict[str, Any]] = []
        dropped = 0
        for entry in report.entries:
            summary = (
                entry.kind in _PANEL_SUMMARY_KINDS
                or "total" in entry.metric
                or entry.metric.startswith("micro ")
            )
            if not (summary or entry.moved or entry.verdict.classification == "noisy"):
                continue
            if len(rows) >= max_rows:
                dropped += 1
                continue
            rows.append(entry.to_dict())
        histories.append({
            "name": name,
            "runs": [run.meta() for run in runs],
            "by_class": report.by_class(),
            "entries": rows,
            "dropped": dropped,
        })
    return {"histories": histories}


# ---------------------------------------------------------------------------
# CLI: ``python -m repro trend``.
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro trend <name> [--check] [--json PATH|-]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro trend",
        description="Classify every metric series of a stored run history "
        "as stable, noisy, drift or step_change (with the changepoint "
        "attributed to a commit range).",
    )
    parser.add_argument(
        "name", nargs="?", default="pipeline",
        help="history series to judge: pipeline, service, micro, "
        "sweep_<corpus>, ... (default: pipeline)",
    )
    parser.add_argument(
        "--history-dir", default=str(DEFAULT_HISTORY_DIR), metavar="DIR",
        help=f"run-history root (default: {DEFAULT_HISTORY_DIR})",
    )
    parser.add_argument(
        "--last", type=int, default=20, metavar="N",
        help="judge only the most recent N stored runs (default: 20)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when any series shows a bad-direction step change or "
        "drift (timings/latency up, II up, hit rate down)",
    )
    parser.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="write the full report as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="list every series, stable ones included",
    )
    args = parser.parse_args(argv)

    report = trend_report(args.name, history_dir=args.history_dir, last=args.last)
    if args.json_out == "-":
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(report.formatted(verbose=args.verbose))
        if args.json_out:
            path = pathlib.Path(args.json_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(report.to_dict(), indent=1, sort_keys=True) + "\n")
            print(f"wrote {path}")
    if not report.runs:
        print(f"no stored runs for {args.name!r} under {args.history_dir}",
              file=sys.stderr)
        return 0
    if args.check and not report.ok:
        return 1
    return 0
