"""The self-contained HTML dashboard: ``report.html``.

One file, no network: inline CSS, a dozen lines of inline JS (a binding
filter), and five panels —

* **II explanations** (``#explanations``): the per-(loop × scheduler)
  attribution table from :mod:`repro.obs.explain`, each row with a
  ``<details>`` drill-down showing the modulo reservation table of the
  achieved schedule and the II-attempt timeline of the search;
* **figure tables** (``#figures``): the eval experiments' Fig 2–7 tables,
  taken straight from :meth:`repro.eval.report.Table.to_rows` (no ASCII
  re-parsing), with their bar charts as preformatted text;
* **bench diff** (``#diff``): the attributed baseline comparison from
  :mod:`repro.obs.diffbench`;
* **bench/trace summary** (``#bench``): per-scheduler totals and folded
  obs counters of the underlying BENCH payload;
* **run history** (``#history``): per-metric sparkline series over the
  stored runs (:mod:`repro.obs.history`) with each series' trend verdict
  and, for step changes, the changepoint's commit range — degrading to a
  placeholder until at least two runs are stored.

``validate_html`` is the well-formedness gate used by ``repro report
--check`` and the report-smoke CI lane: stdlib ``html.parser`` driving a
tag-balance stack plus required-content checks — not a full validator,
but enough to catch an empty or truncated artefact.
"""

from __future__ import annotations

import html as _html
import pathlib
from html.parser import HTMLParser
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .export import atomic_write_text

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
       color: #1a1a2e; background: #fafafa; }
h1 { border-bottom: 3px solid #16324f; padding-bottom: .3rem; }
h2 { color: #16324f; margin-top: 2.2rem; }
h3 { color: #2b5278; margin-bottom: .4rem; }
table { border-collapse: collapse; margin: .6rem 0 1rem; font-size: .86rem; }
th, td { border: 1px solid #c9d4de; padding: .25rem .55rem; text-align: left;
         vertical-align: top; }
th { background: #e8eef4; }
tr:nth-child(even) td { background: #f3f6f9; }
pre { background: #10212f; color: #d8e4ee; padding: .8rem; overflow-x: auto;
      font-size: .8rem; border-radius: 4px; }
details { margin: .3rem 0 .8rem; }
summary { cursor: pointer; color: #2b5278; }
.meta { color: #5a6b7a; font-size: .85rem; }
.binding { padding: .05rem .45rem; border-radius: .7rem; font-size: .8rem;
           white-space: nowrap; }
.binding-recurrence { background: #d7e8ff; }
.binding-resource { background: #d9f2dc; }
.binding-register_pressure { background: #ffe3c7; }
.binding-search_budget { background: #fff3b8; }
.binding-search_exhausted { background: #ffd9d9; }
.binding-unschedulable { background: #f4c6c6; }
.regression { color: #a11a1a; font-weight: 600; }
.warning { color: #9a6700; }
.info { color: #5a6b7a; }
.mrt td.busy { background: #cfe3f7; }
"""

_JS = """
function filterBindings(value) {
  document.querySelectorAll('#explanations tbody tr').forEach(function (row) {
    row.style.display =
      (!value || row.dataset.binding === value) ? '' : 'none';
  });
}
"""


class _Raw(str):
    """Marker for cells that are already HTML (e.g. binding badges).

    Everything NOT wrapped in ``_Raw`` is escaped — a loop named
    ``<script>`` must render as text, never as markup.
    """


def _esc(value: Any) -> str:
    return _html.escape("" if value is None else str(value), quote=True)


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
           klass: str = "", row_attrs: Optional[Sequence[str]] = None) -> str:
    out = [f'<table class="{_esc(klass)}">' if klass else "<table>"]
    out.append("<thead><tr>" + "".join(f"<th>{_esc(h)}</th>" for h in headers) + "</tr></thead>")
    out.append("<tbody>")
    for i, row in enumerate(rows):
        attrs = f" {row_attrs[i]}" if row_attrs else ""
        out.append(
            f"<tr{attrs}>"
            + "".join(
                f"<td>{cell if isinstance(cell, _Raw) else _esc(cell)}</td>"
                for cell in row
            )
            + "</tr>"
        )
    out.append("</tbody></table>")
    return "\n".join(out)


def _as_dict(obj: Any) -> Dict[str, Any]:
    if isinstance(obj, Mapping):
        return dict(obj)
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    raise TypeError(f"cannot render {type(obj).__name__} as a dict")


# ---------------------------------------------------------------------------
# Panels.
# ---------------------------------------------------------------------------


def _binding_badge(binding: str) -> _Raw:
    return _Raw(f'<span class="binding binding-{_esc(binding)}">{_esc(binding)}</span>')


def _mrt_html(mrt: Sequence[Mapping[str, Any]]) -> str:
    if not mrt:
        return "<p class='info'>no reservation table (schedule unavailable)</p>"
    resources = sorted(mrt[0].get("used", {}))
    headers = ["slot", "ops (stage)"] + resources
    rows, attrs = [], []
    for row in mrt:
        ops = ", ".join(
            f"{op['opcode']}#{op['index']} (s{op['stage']})" for op in row.get("ops", [])
        )
        cells = [str(row.get("slot")), ops]
        for resource in resources:
            cells.append(str(row.get("used", {}).get(resource, 0)))
        rows.append(cells)
        attrs.append("")
    return _table(headers, rows, klass="mrt", row_attrs=attrs)


def _timeline_html(attempts: Sequence[Mapping[str, Any]]) -> str:
    if not attempts:
        return "<p class='info'>no II-attempt timeline</p>"
    headers = ["#", "II", "phase", "outcome", "effort"]
    rows = []
    for i, a in enumerate(attempts, 1):
        outcome = a.get("answer") or ("ok" if a.get("success") else a.get("stop") or "fail")
        if a.get("allocated") is False:
            outcome += f", {a.get('uncolored')} uncoloured"
        effort = ", ".join(
            f"{k}={a[k]}"
            for k in ("placements", "backtracks", "nodes")
            if a.get(k)
        )
        phase = a.get("phase") or a.get("backend", "")
        rows.append([str(i), str(a.get("ii")), str(phase), outcome, effort])
    return _table(headers, rows)


def _explanations_panel(explanations: Sequence[Any]) -> str:
    records = [_as_dict(e) for e in explanations]
    if not records:
        return ""
    bindings = sorted({r.get("binding", "?") for r in records})
    options = "".join(f'<option value="{_esc(b)}">{_esc(b)}</option>' for b in bindings)
    parts = [
        '<section id="explanations">',
        "<h2>II explanations</h2>",
        "<p class='meta'>Every (loop × scheduler) cell attributed to exactly "
        "one binding-constraint class — the paper's §5 'II ≈ MinII' argument, "
        "made per-loop. Filter: "
        f'<select onchange="filterBindings(this.value)">'
        f'<option value="">all bindings</option>{options}</select></p>',
    ]
    headers = ["loop", "scheduler", "II", "MinII", "res/rec", "gap", "binding", "detail"]
    rows, attrs = [], []
    for r in records:
        rows.append(
            [
                r.get("loop"),
                r.get("scheduler"),
                "-" if r.get("ii") is None else r["ii"],
                r.get("min_ii"),
                f"{r.get('res_mii')}/{r.get('rec_mii')}",
                "-" if r.get("gap") is None else r["gap"],
                _binding_badge(r.get("binding", "?")),
                r.get("detail", ""),
            ]
        )
        attrs.append(f'data-binding="{_esc(r.get("binding", "?"))}"')
    parts.append(_table(headers, rows, row_attrs=attrs))
    parts.append("<h3>Per-loop drill-downs</h3>")
    for r in records:
        circuit = ", ".join(
            f"{c['opcode']}#{c['index']}" for c in r.get("critical_circuit", [])
        )
        util = ", ".join(
            f"{resource}={value:.0%}"
            for resource, value in sorted(
                (r.get("utilization") or {}).items(), key=lambda kv: -kv[1]
            )
        )
        body = [
            f"<p class='meta'>binding {_binding_badge(r.get('binding', '?'))} — "
            f"{_esc(r.get('detail', ''))}</p>",
            f"<p>bottleneck resource: <b>{_esc(r.get('bottleneck'))}</b>"
            + (f" · utilization at II: {_esc(util)}" if util else "")
            + (f" · critical circuit: {_esc(circuit)}" if circuit else "")
            + (
                f" · spill rounds: {r['spill_rounds']}"
                if r.get("spill_rounds")
                else ""
            )
            + "</p>",
            "<h4>Modulo reservation table</h4>",
            _mrt_html(r.get("mrt", [])),
            "<h4>II-attempt timeline</h4>",
            _timeline_html(r.get("attempts", [])),
        ]
        parts.append(
            f"<details><summary>{_esc(r.get('loop'))} × {_esc(r.get('scheduler'))}"
            f" — II {_esc(r.get('ii'))} / MinII {_esc(r.get('min_ii'))}</summary>"
            + "\n".join(body)
            + "</details>"
        )
    parts.append("</section>")
    return "\n".join(parts)


def _figures_panel(tables: Sequence[Any], charts: Sequence[str]) -> str:
    if not tables and not charts:
        return ""
    parts = ['<section id="figures">', "<h2>Figure tables</h2>"]
    for table in tables:
        title = getattr(table, "title", None)
        headers = getattr(table, "headers", None)
        notes = getattr(table, "notes", [])
        if headers is not None and hasattr(table, "to_rows"):
            rows = table.to_rows()
        else:
            data = _as_dict(table)
            title, headers = data.get("title", ""), data.get("headers", [])
            rows, notes = data.get("rows", []), data.get("notes", [])
        parts.append(f"<h3>{_esc(title)}</h3>")
        parts.append(_table(headers, rows))
        for note in notes:
            parts.append(f"<p class='info'>note: {_esc(note)}</p>")
    for chart in charts:
        if chart:
            parts.append(f"<pre>{_esc(chart)}</pre>")
    parts.append("</section>")
    return "\n".join(parts)


def _diff_panel(diff: Any) -> str:
    if diff is None:
        return ""
    data = _as_dict(diff)
    parts = ['<section id="diff">', "<h2>Bench diff vs. baseline</h2>"]
    parts.append(
        f"<p class='meta'>{_esc(data.get('old'))} "
        f"(code {_esc((data.get('old_code_version') or '?')[:12])}) → "
        f"{_esc(data.get('new'))} "
        f"(code {_esc((data.get('new_code_version') or '?')[:12])})</p>"
    )
    for kind, klass in (("regressions", "regression"), ("warnings", "warning"), ("infos", "info")):
        for line in data.get(kind, []):
            parts.append(f"<p class='{klass}'>{_esc(kind[:-1].upper())}: {_esc(line)}</p>")
    by_cause = data.get("by_cause", {})
    if by_cause:
        parts.append("<h3>Changed cells by cause</h3>")
        parts.append(_table(["cause", "cells"], sorted(by_cause.items())))
    changed = [
        c for c in data.get("cells", [])
        if c.get("status") not in ("unchanged", "noise")
    ]
    if changed:
        parts.append("<h3>Changed cells</h3>")
        rows = []
        for c in changed:
            moved = "; ".join(
                f"{name}: {old} → {new}"
                for name, (old, new) in sorted(c.get("deltas", {}).items())
            )
            rows.append(
                [c.get("loop"), c.get("scheduler"), c.get("status"), c.get("cause"), moved]
            )
        parts.append(_table(["loop", "scheduler", "status", "cause", "deltas"], rows))
    else:
        parts.append("<p class='info'>no changed cells</p>")
    parts.append("</section>")
    return "\n".join(parts)


def _bench_panel(bench: Optional[Mapping[str, Any]]) -> str:
    if not bench:
        return ""
    totals = bench.get("totals", {}) or {}
    parts = ['<section id="bench">', "<h2>Bench &amp; trace summary</h2>"]
    parts.append(
        "<p class='meta'>"
        + " · ".join(
            f"{key}: {_esc(bench.get(key))}"
            for key in ("name", "created_at", "code_version", "machine", "wall_seconds")
            if bench.get(key) is not None
        )
        + "</p>"
    )
    by_sched = totals.get("by_scheduler", {})
    if by_sched:
        headers = ["scheduler", "cells", "at MinII", "timeouts", "fallbacks",
                   "errors", "schedule s"]
        rows = [
            [
                name,
                agg.get("cells", 0),
                agg.get("at_min_ii", 0),
                agg.get("timeouts", 0),
                agg.get("fallbacks", 0),
                agg.get("errors", 0),
                f"{agg.get('schedule_seconds', 0.0):.2f}",
            ]
            for name, agg in sorted(by_sched.items())
        ]
        parts.append(_table(headers, rows))
    obs = totals.get("obs", {})
    if obs:
        parts.append("<h3>Search-effort counters (folded over all cells)</h3>")
        parts.append(
            _table(
                ["counter", "total"],
                [(name, f"{value:,.0f}") for name, value in sorted(obs.items())],
            )
        )
    ratio = totals.get("ilp_vs_heuristic_time_geomean")
    if ratio:
        parts.append(
            f"<p>ILP vs heuristic schedule-time geomean: <b>{ratio:.1f}×</b>"
            + (
                f" (native solves only: {totals['ilp_vs_heuristic_time_geomean_native']:.1f}×)"
                if totals.get("ilp_vs_heuristic_time_geomean_native")
                else ""
            )
            + " — the paper's §4.7 comparison.</p>"
        )
    parts.append("</section>")
    return "\n".join(parts)


def _sparkline(values: Sequence[Optional[float]],
               changepoint: Optional[int] = None,
               width: int = 140, height: int = 26) -> _Raw:
    """An inline-SVG sparkline of one metric series (None = missing run)."""
    points = [(i, float(v)) for i, v in enumerate(values) if v is not None]
    if len(points) < 2:
        return _Raw("<span class='info'>&ndash;</span>")
    xs = [i for i, _ in points]
    ys = [v for _, v in points]
    lo, hi = min(ys), max(ys)
    y_span = (hi - lo) or 1.0
    x_span = (max(xs) - min(xs)) or 1

    def coord(i: int, v: float) -> str:
        x = (i - min(xs)) / x_span * (width - 4) + 2
        y = height - 3 - (v - lo) / y_span * (height - 6)
        return f"{x:.1f},{y:.1f}"

    svg = [
        f'<svg width="{width}" height="{height}" role="img">',
        f'<polyline points="{" ".join(coord(i, v) for i, v in points)}"'
        ' fill="none" stroke="#2b5278" stroke-width="1.5"/>',
    ]
    if changepoint is not None:
        marked = next(((i, v) for i, v in points if i == changepoint), None)
        if marked is not None:
            x, y = coord(*marked).split(",")
            svg.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#a11a1a"/>')
    svg.append("</svg>")
    return _Raw("".join(svg))


_TREND_CLASS_STYLES = {
    "step_change": "regression",
    "drift": "warning",
    "noisy": "warning",
    "stable": "info",
}


def _history_panel(history: Any) -> str:
    if history is None:
        return ""
    data = _as_dict(history)
    histories = data.get("histories") or []
    parts = ['<section id="history">', "<h2>Run history &amp; trends</h2>"]
    if not any(len(h.get("runs") or []) >= 2 for h in histories):
        parts.append(
            "<p class='info'>Not enough stored runs yet: the history store "
            "(benchmarks/history/) needs at least two runs of a series "
            "before run-over-run charts mean anything. Accumulate runs via "
            "<code>make bench-quick</code>/<code>make serve-smoke</code> "
            "with history enabled, or seed run zero from the committed "
            "baselines with <code>make history-seed</code>.</p>"
        )
        parts.append("</section>")
        return "\n".join(parts)
    parts.append(
        "<p class='meta'>Per-metric series over the stored runs (oldest "
        "left), classified by <code>repro trend</code>: a red dot marks a "
        "step change's changepoint run, attributed below to its commit "
        "range.</p>"
    )
    for entry in histories:
        name = entry.get("name", "?")
        runs = entry.get("runs") or []
        parts.append(f"<h3>{_esc(name)} — {len(runs)} stored runs</h3>")
        if runs:
            first, last = runs[0], runs[-1]
            span = (
                f"{(first.get('git_sha') or first.get('code_version') or '?')[:12]}"
                " .. "
                f"{(last.get('git_sha') or last.get('code_version') or '?')[:12]}"
            )
            counts = entry.get("by_class") or {}
            summary = ", ".join(
                f"{cls}: {counts[cls]}" for cls in sorted(counts) if counts[cls]
            )
            parts.append(
                f"<p class='meta'>commits {_esc(span)}"
                + (f" · {_esc(summary)}" if summary else "") + "</p>"
            )
        if len(runs) < 2:
            parts.append(
                "<p class='info'>only one stored run — charts appear once a "
                "second run is filed</p>"
            )
            continue
        rows = []
        for metric in entry.get("entries") or []:
            verdict = metric.get("verdict") or {}
            classification = verdict.get("classification", "stable")
            values = metric.get("values") or []
            latest = next(
                (v for v in reversed(values) if v is not None), None
            )
            commit_range = metric.get("commit_range")
            detail = verdict.get("detail", "")
            if commit_range:
                detail += f" · commits {commit_range[0]}..{commit_range[1]}"
            badge_class = _TREND_CLASS_STYLES.get(classification, "info")
            if classification in ("step_change", "drift") and not metric.get("regression"):
                badge_class = "info"  # an improvement is not alarming
            rows.append([
                metric.get("metric"),
                _sparkline(values, changepoint=verdict.get("changepoint")),
                "-" if latest is None else f"{latest:.4g}",
                _Raw(f"<span class='{badge_class}'>{_esc(classification)}</span>"),
                detail,
            ])
        if rows:
            parts.append(_table(
                ["metric", "series", "latest", "trend", "detail"], rows,
            ))
        dropped = entry.get("dropped") or 0
        if dropped:
            parts.append(
                f"<p class='info'>{dropped} further moved series omitted "
                "for brevity — <code>repro trend "
                f"{_esc(name)} --verbose</code> lists them all</p>"
            )
    parts.append("</section>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Document assembly.
# ---------------------------------------------------------------------------


def render_report(
    title: str = "repro — pipeliner showdown report",
    meta: Optional[Mapping[str, Any]] = None,
    explanations: Sequence[Any] = (),
    tables: Sequence[Any] = (),
    charts: Sequence[str] = (),
    diff: Any = None,
    bench: Optional[Mapping[str, Any]] = None,
    history: Any = None,
) -> str:
    """Assemble the one-file dashboard; every panel is optional."""
    meta_line = " · ".join(
        f"{_esc(k)}: {_esc(v)}" for k, v in (meta or {}).items()
    )
    sections = [
        _explanations_panel(explanations),
        _figures_panel(tables, charts),
        _diff_panel(diff),
        _bench_panel(bench),
        _history_panel(history),
    ]
    body = "\n".join(s for s in sections if s)
    if not body:
        body = "<p class='info'>empty report: no panels were populated</p>"
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{_esc(title)}</title>
<style>{_CSS}</style>
<script>{_JS}</script>
</head>
<body>
<h1>{_esc(title)}</h1>
<p class="meta">{meta_line}</p>
{body}
</body>
</html>
"""


def write_report(path, **kwargs) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, render_report(**kwargs))
    return path


# ---------------------------------------------------------------------------
# Validation (the report-smoke gate).
# ---------------------------------------------------------------------------

#: Tags whose balance the validator enforces (void tags excluded).
_TRACKED_TAGS = {
    "html", "head", "body", "section", "table", "thead", "tbody", "tr",
    "td", "th", "details", "summary", "select", "h1", "h2", "h3", "h4",
    "p", "pre", "b", "span", "style", "script", "title",
}


class _Validator(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.stack: List[str] = []
        self.problems: List[str] = []
        self.seen: Dict[str, int] = {}
        self.text_chars = 0

    def handle_starttag(self, tag: str, attrs) -> None:
        self.seen[tag] = self.seen.get(tag, 0) + 1
        if tag in _TRACKED_TAGS:
            self.stack.append(tag)

    def handle_endtag(self, tag: str) -> None:
        if tag not in _TRACKED_TAGS:
            return
        if not self.stack:
            self.problems.append(f"closing </{tag}> with empty stack")
            return
        if self.stack[-1] == tag:
            self.stack.pop()
            return
        if tag in self.stack:  # mis-nesting
            self.problems.append(
                f"mis-nested </{tag}> (open: {'/'.join(self.stack[-3:])})"
            )
            while self.stack and self.stack[-1] != tag:
                self.stack.pop()
            if self.stack:
                self.stack.pop()
        else:
            self.problems.append(f"unopened </{tag}>")

    def handle_data(self, data: str) -> None:
        self.text_chars += len(data.strip())


def validate_html(
    text: str, required_ids: Sequence[str] = ()
) -> List[str]:
    """Well-formedness problems of a report document; empty list = valid."""
    problems: List[str] = []
    if not text.strip():
        return ["document is empty"]
    if not text.lstrip().lower().startswith("<!doctype html"):
        problems.append("missing <!DOCTYPE html> preamble")
    validator = _Validator()
    validator.feed(text)
    validator.close()
    problems.extend(validator.problems)
    if validator.stack:
        problems.append(f"unclosed tags at EOF: {'/'.join(validator.stack)}")
    for tag in ("html", "head", "body", "title"):
        if not validator.seen.get(tag):
            problems.append(f"missing <{tag}>")
    if validator.text_chars < 40:
        problems.append(f"suspiciously little text content ({validator.text_chars} chars)")
    for required in required_ids:
        if f'id="{required}"' not in text:
            problems.append(f"missing panel id={required!r}")
    return problems


def validate_report_file(path, required_ids: Sequence[str] = ()) -> List[str]:
    path = pathlib.Path(path)
    if not path.exists():
        return [f"no report at {path}"]
    return validate_html(path.read_text(), required_ids)
