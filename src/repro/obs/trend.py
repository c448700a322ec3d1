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
    Everything else, including series shorter than ``MIN_RUNS`` (4).

This module is also the one regression policy for numbers.
:data:`TOLERANCES` says, per series kind, which direction is worse and
how much worse than the point before it the newest point of a series
shorter than ``MIN_RUNS`` may be.  :func:`judge` turns a report into the
newest run's regressions and warnings: ``repro diff`` takes every timing,
latency and rate verdict from it, over the two runs it compares or, with
``--trend``, over the stored history plus the fresh run.  ``repro trend
<name> --check`` exits non-zero on any regressing series.
"""

from __future__ import annotations

import json
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


def classify_series(values: Sequence[Optional[float]]) -> SeriesVerdict:
    """Classify one metric series (None entries are missing runs)."""
    points = [(i, float(v)) for i, v in enumerate(values) if v is not None]
    vals = [v for _, v in points]
    n = len(vals)
    if n < MIN_RUNS:
        return SeriesVerdict(
            "stable", detail=f"insufficient history ({n} of {MIN_RUNS} runs)"
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
    significant = mwu.p_value is not None and mwu.p_value < ALPHA
    separated = abs(delta) >= 1.0 - _EPS

    if abs(rel) >= STEP_REL and (significant or separated):
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
    if abs(tau) >= DRIFT_TAU and abs(end_rel) >= DRIFT_REL:
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
    if cv > NOISE_CV:
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
# The regression policy: one tolerance table, one judge.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tolerance:
    """How one kind of series is judged."""

    bad_direction: str              # "up" | "down": which way is a regression
    warn: Optional[float] = None    # pairwise worsening ratio that warns
    fail: Optional[float] = None    # pairwise worsening ratio that regresses


#: Every series kind :func:`collect_metric_series` emits, and how it is
#: judged.  A series with ``MIN_RUNS`` points is judged by its trend
#: verdict above; a shorter one (a pairwise ``repro diff`` is two points)
#: by how much worse its newest point is than the one before, against
#: ``warn``/``fail``.  A kind without ratios is never judged pairwise: II
#: stays with the diff's strict quality rules, per-cell times are below
#: the noise floor, and the hit rate is judged only as a trend.
TOLERANCES: Dict[str, Tolerance] = {
    "quality": Tolerance("up"),                    # per-cell II
    "timing": Tolerance("up", warn=2.0),           # per-scheduler schedule time
    "cell_timing": Tolerance("up"),                # per-cell schedule time
    "latency": Tolerance("up", warn=5.0),          # service p50/p99
    "rate": Tolerance("down"),                     # service cache hit rate
    "micro": Tolerance("up", warn=1.5, fail=3.0),  # hot-path kernels
}


def _pairwise(values: Sequence[Optional[float]], tolerance: Tolerance) -> Tuple[Optional[str], str]:
    """("regression" | "warning" | None, detail) of the newest point
    against the one before it."""
    if len(values) < 2 or not values[-2] or not values[-1]:
        return None, ""
    before, last = float(values[-2]), float(values[-1])
    up = tolerance.bad_direction == "up"
    ratio = last / before if up else before / last
    for breach, limit in (("regression", tolerance.fail), ("warning", tolerance.warn)):
        if limit is not None and ratio > limit:
            return breach, (
                f"{tolerance.bad_direction} {ratio:.1f}x: {before:.4g} -> {last:.4g} "
                f"({breach} above {limit:g}x)"
            )
    return None, ""


def judge(report: "TrendReport") -> Tuple[List[str], List[str]]:
    """The newest run's (regressions, warnings) over every series but II.

    A short series that breaks its tolerance is reported at the breach's
    level.  A longer one that moved the bad way is a regression only when
    it is a step change starting at the newest run; older steps and
    drifts only warn, since the newest run did not introduce them.
    Quality (II) stays strict and pairwise in :mod:`repro.obs.diffbench`.
    """
    fresh = len(report.runs) - 1
    regressions: List[str] = []
    warnings: List[str] = []
    for entry in report.entries:
        if entry.kind == "quality":
            continue
        verdict = entry.verdict
        if entry.breach:
            line = f"{entry.metric} {verdict.detail}"
            (regressions if entry.breach == "regression" else warnings).append(line)
        elif entry.regression:
            commits = (
                f" (commits {entry.commit_range[0]}..{entry.commit_range[1]})"
                if entry.commit_range else ""
            )
            line = f"trend {verdict.classification}: {entry.metric} {verdict.detail}{commits}"
            if verdict.classification == "step_change" and verdict.changepoint == fresh:
                regressions.append(line + " — introduced by this run")
            else:
                warnings.append(line)
    return regressions, warnings


# ---------------------------------------------------------------------------
# Metric-series extraction from stored runs.
# ---------------------------------------------------------------------------


@dataclass
class MetricTrend:
    """One metric's series across the stored runs, with its verdict."""

    metric: str
    kind: str            # a TOLERANCES key
    values: List[Optional[float]]
    verdict: SeriesVerdict
    commit_range: Optional[Tuple[str, str]] = None  # (sha before, sha after)
    #: "regression" | "warning" when a series shorter than MIN_RUNS broke
    #: its kind's tolerance at the newest point.
    breach: Optional[str] = None

    @property
    def bad_direction(self) -> str:
        return TOLERANCES[self.kind].bad_direction

    @property
    def moved(self) -> bool:
        return self.verdict.classification in ("drift", "step_change")

    @property
    def regression(self) -> bool:
        return (
            self.moved and self.verdict.direction == self.bad_direction
        ) or self.breach == "regression"

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
            "breach": self.breach,
            "regression": self.regression,
            "improvement": self.improvement,
        }


def collect_metric_series(
    payloads: Sequence[Mapping[str, Any]],
) -> List[Tuple[str, str, List[Optional[float]]]]:
    """(metric, kind, values) for every tracked series of ``payloads``,
    oldest first: the one reader of timing fields in a BENCH payload."""
    series: List[Tuple[str, str, List[Optional[float]]]] = []
    totals = [payload.get("totals") or {} for payload in payloads]

    by_scheduler = [t.get("by_scheduler") or {} for t in totals]
    for sched in sorted({s for table in by_scheduler for s in table}):
        vals = [(table.get(sched) or {}).get("schedule_seconds") for table in by_scheduler]
        series.append((f"{sched} total schedule_seconds", "timing", vals))

    # Per-cell II and schedule time, aligned on (loop, scheduler).
    indexed: List[Dict[Tuple[str, str], Mapping[str, Any]]] = []
    for payload in payloads:
        table: Dict[Tuple[str, str], Mapping[str, Any]] = {}
        for cell in payload.get("cells") or []:
            loop, sched = cell.get("loop"), cell.get("scheduler")
            if loop and sched:
                table.setdefault((loop, sched), cell)
        indexed.append(table)
    for loop, sched in sorted({key for table in indexed for key in table}):
        cells = [table.get((loop, sched)) for table in indexed]
        series.append((
            f"{loop} × {sched} II", "quality",
            [None if c is None else c.get("ii") for c in cells],
        ))
        series.append((
            f"{loop} × {sched} schedule_seconds", "cell_timing",
            [None if c is None else c.get("schedule_seconds") for c in cells],
        ))

    # Service latency percentiles and the cache hit rate.
    service = [t.get("service") or {} for t in totals]
    if any(service):
        for name in ("p50_ms", "p99_ms"):
            vals = [(s.get("latency_ms") or {}).get(name) for s in service]
            series.append((f"service latency {name}", "latency", vals))
        series.append(("service hit_rate", "rate", [s.get("hit_rate") for s in service]))

    # Micro hot-path kernels (BENCH_micro: flat name -> best seconds).
    benches = [payload.get("benches") or {} for payload in payloads]
    for bench in sorted({b for table in benches for b in table}):
        series.append((f"micro {bench} seconds", "micro", [table.get(bench) for table in benches]))
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
                f"  fewer than {MIN_RUNS} runs — each series' newest run is "
                "judged against the one before by its tolerance"
            )
        counts = self.by_class()
        lines.append(
            "  " + ", ".join(f"{cls}: {counts[cls]}" for cls in CLASSES)
        )
        for entry in self.entries:
            verdict = entry.verdict
            if not verbose and verdict.classification == "stable" and not entry.breach:
                continue
            flag = ""
            if entry.regression:
                flag = "  REGRESSION"
            elif entry.breach:
                flag = "  WARNING"
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


def build_trend(name: str, runs: Sequence[RunRecord]) -> TrendReport:
    """Classify every tracked metric series of ``runs``."""
    runs = list(runs)
    entries: List[MetricTrend] = []
    for metric, kind, values in collect_metric_series([run.payload for run in runs]):
        verdict = classify_series(values)
        breach = None
        if sum(v is not None for v in values) < MIN_RUNS:
            breach, detail = _pairwise(values, TOLERANCES[kind])
            if breach:
                verdict.detail = detail
        commit_range = None
        cp = verdict.changepoint
        if cp is not None and 0 < cp < len(runs):
            commit_range = (runs[cp - 1].sha12, runs[cp].sha12)
        entries.append(MetricTrend(
            metric=metric, kind=kind, values=values, verdict=verdict,
            commit_range=commit_range, breach=breach,
        ))
    return TrendReport(name=name, runs=runs, entries=entries)


def trend_report(
    name: str,
    history_dir=DEFAULT_HISTORY_DIR,
    last: Optional[int] = 20,
    fresh: Optional[Mapping[str, Any]] = None,
) -> TrendReport:
    """The trend report over the stored history of ``name``.

    ``fresh`` is a BENCH payload judged as the newest run (``repro diff
    --trend``).  ``repro bench --history-dir`` may have filed it already,
    so a stored copy of ``fresh`` (same ``created_at``, ``code_version``
    and git SHA) is dropped first: the fresh run is counted once, and last.
    """
    runs = HistoryStore(history_dir).runs(name)
    if fresh is not None:
        new = RunRecord.of(fresh, name)

        def identity(run: RunRecord) -> Tuple[Any, ...]:
            return (run.created_at, run.code_version, run.git_sha)

        runs = [run for run in runs if identity(run) != identity(new)] + [new]
    if last is not None and last > 0:
        runs = runs[-last:]
    return build_trend(name, runs)


# ---------------------------------------------------------------------------
# History panel data for the HTML dashboard.
# ---------------------------------------------------------------------------

#: Cell-level series are only surfaced in the dashboard when they moved;
#: totals/service/micro series always are.  This caps the panel's size.
_PANEL_SUMMARY_KINDS = ("timing", "latency", "rate", "micro")


def history_panel_data(
    history_dir=DEFAULT_HISTORY_DIR,
    names: Sequence[str] = ("pipeline", "service", "micro"),
    last: Optional[int] = 20,
    max_rows: int = 60,
) -> Dict[str, Any]:
    """Render-ready history series + verdicts for ``repro report``."""
    histories: List[Dict[str, Any]] = []
    for name in names:
        report = trend_report(name, history_dir, last)
        if not report.runs:
            continue
        rows: List[Dict[str, Any]] = []
        dropped = 0
        for entry in report.entries:
            summary = entry.kind in _PANEL_SUMMARY_KINDS
            if not (summary or entry.moved or entry.verdict.classification == "noisy"):
                continue
            if len(rows) >= max_rows:
                dropped += 1
                continue
            rows.append(entry.to_dict())
        histories.append({
            "name": name,
            "runs": [run.meta() for run in report.runs],
            "by_class": report.by_class(),
            "entries": rows,
            "dropped": dropped,
        })
    return {"histories": histories}


def trend_main(*, name: str, last: int, check: bool, verbose: bool, history_dir: str,
               json_out: Optional[str]) -> int:
    """``python -m repro trend <name>``: trend verdicts over the run
    history; with ``check``, 1 when any series regressed."""
    from .views import print_or_write

    report = trend_report(name, history_dir=history_dir, last=last)
    print_or_write(json_out, json.dumps(report.to_dict(), indent=1, sort_keys=True),
                   report.formatted(verbose=verbose))
    if not report.runs:
        print(f"no stored runs for {name!r} under {history_dir}", file=sys.stderr)
        return 0
    return 1 if check and not report.ok else 0
