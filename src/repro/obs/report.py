"""The search-effort report: the paper's scheduling-time story as a table.

Section 4.7's headline — the ILP pipeliner spending ~250x the heuristic's
scheduling time — is an *effort* comparison, so the table puts the effort
counters side by side per loop: SGI branch-and-bound nodes (placement
attempts), backtracks and II attempts against MOST's HiGHS
branch-and-bound nodes and node-limit hits, with Rau94's
placements/evictions as the non-backtracking reference point and the
portfolio's probes and CP nodes beside them.  Input is any sequence of
cell-result objects carrying ``loop``/``scheduler``/``schedule_seconds``/
``obs`` (duck-typed so the exec layer stays optional).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: One effort column group per scheduler, in table order: its label and the
#: columns between its II and seconds, each reading one obs counter
#: (``probes`` is the cell's probe trail length instead).
EFFORT_GROUPS: Dict[str, Tuple[str, Dict[str, str]]] = {
    "sgi": ("SGI", {"nodes": "bnb.placements", "bt": "bnb.backtracks", "IIs": "ii.attempts"}),
    "most": ("MOST", {"nodes": "ilp.nodes", "limits": "ilp.node_limit_hits"}),
    "rau": ("RAU", {"placed": "rau.placements", "evict": "rau.evictions"}),
    "portfolio": ("PORT", {"probes": "probes", "cp nodes": "portfolio.cp.nodes"}),
}


def geomean(values: Sequence[float]) -> Optional[float]:
    """Geometric mean of the positive values; None when there are none."""
    positive = [v for v in values if v > 0]
    if not positive:
        return None
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def _fmt_count(value: Optional[float]) -> str:
    if value is None:
        return "-"
    value = int(value)
    if value >= 10_000_000:
        return f"{value / 1e6:.0f}M"
    if value >= 100_000:
        return f"{value / 1e3:.0f}k"
    return str(value)


def _effort_value(res: Any, counter: str) -> Optional[float]:
    if counter == "probes":  # the cell's probe trail, not an obs counter
        return len(getattr(res, "backend_probes", None) or ())
    return (getattr(res, "obs", None) or {}).get(counter)


def effort_rows(results: Sequence[Any]) -> List[Dict[str, Any]]:
    """Per-loop effort rows from a mixed-scheduler result sequence."""
    by_loop: Dict[str, Dict[str, Any]] = {}
    for res in results:
        by_loop.setdefault(res.loop, {})[res.scheduler] = res

    rows: List[Dict[str, Any]] = []
    for loop in by_loop:  # insertion order = corpus order
        cells = by_loop[loop]
        row: Dict[str, Any] = {"loop": loop, "n_ops": 0}
        for scheduler, res in cells.items():
            row["n_ops"] = max(row["n_ops"], getattr(res, "n_ops", 0))
            entry = {
                "ii": res.ii,
                "seconds": res.schedule_seconds,
                "fallback": getattr(res, "fallback", False),
                "timeout": getattr(res, "timeout", False),
            }
            _, columns = EFFORT_GROUPS.get(scheduler, ("", {}))
            for column, counter in columns.items():
                entry[column] = _effort_value(res, counter)
            row[scheduler] = entry
        sgi = row.get("sgi")
        most = row.get("most")
        if sgi and most and sgi["seconds"] > 0:
            row["time_ratio"] = most["seconds"] / max(sgi["seconds"], 1e-4)
        rows.append(row)
    return rows


def format_effort_table(results: Sequence[Any]) -> str:
    """The per-loop search-effort table ``python -m repro bench --trace`` prints:
    one column group (II, effort counters, seconds) per scheduler that ran,
    plus MOST's scheduling time over SGI's."""
    rows = effort_rows(results)
    ran = {res.scheduler for res in results}
    groups = [(s, label, columns) for s, (label, columns) in EFFORT_GROUPS.items() if s in ran]
    ratio = "sgi" in ran and "most" in ran

    def group_cols(label: str, columns: Dict[str, str]) -> List[Tuple[str, str, int]]:
        return [
            ("ii", f"{label} II", len(label) + 3),
            *((column, column, max(6, len(column))) for column in columns),
            ("seconds", "sec", 8),
        ]

    layout = [(s, group_cols(label, columns)) for s, label, columns in groups]
    header = f"{'loop':<34} {'ops':>4} | " + " | ".join(
        " ".join(title.rjust(width) for _, title, width in cols) for _, cols in layout
    ) + (f" | {'MOST/SGI':>8}" if ratio else "")
    rule = "-" * len(header)
    lines = [header, rule]

    def cell(entry: Optional[Dict[str, Any]], field: str, width: int) -> str:
        if entry is None:
            return "-".rjust(width)
        if field == "ii":
            ii = "-" if entry["ii"] is None else str(entry["ii"])
            return (ii + ("*" if entry.get("fallback") else "")).rjust(width)
        if field == "seconds":
            return f"{entry['seconds']:.3f}".rjust(width)
        return _fmt_count(entry.get(field)).rjust(width)

    ratios: List[float] = []
    for row in rows:
        line = f"{row['loop']:<34} {row['n_ops']:>4} | " + " | ".join(
            " ".join(cell(row.get(s), field, width) for field, _, width in cols)
            for s, cols in layout
        )
        if ratio:
            value = row.get("time_ratio")
            if value is not None:
                ratios.append(value)
            line += " | " + ("-" if value is None else f"{value:.1f}x").rjust(8)
        lines.append(line)

    lines.append(rule)
    lines.append("totals: " + "; ".join(
        f"{label} " + " ".join(
            f"{column}={_fmt_count(sum(row[s][column] or 0 for row in rows if s in row))}"
            for column in columns
        )
        for s, label, columns in groups
    ))
    geo = geomean(ratios)
    if geo is not None:
        lines.append(
            f"MOST/SGI scheduling-time geomean over {len(ratios)} loops: {geo:.1f}x "
            "(the paper's §4.7 comparison; * = heuristic fallback)"
        )
    return "\n".join(lines)
