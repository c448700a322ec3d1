"""``compare A.json B.json``: two sets of runs, one verdict per (workload, metric).

A is the parent, B the change.  For each end-to-end metric the verdict is

* ``unresolved`` when either side's spread (inter-quartile distance over
  the median) is wider than the metric's bound, unless every run of B
  reads better than every run of A;
* ``worse`` when B's median is worse than A's by more than the bound;
* ``better`` when B wins at least nine tenths of the runs paired by seed
  (ties count for neither) and the medians differ by more than A's own
  inter-quartile distance;
* ``unchanged`` otherwise.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Sequence, Tuple

from .stats import quartiles, spread


def load_runs(path: str) -> List[Dict[str, Any]]:
    with open(path) as handle:
        return json.load(handle)


def _values(runs: Sequence[Dict[str, Any]], workload: str, metric: str) -> List[Tuple[int, float]]:
    return sorted((r["seed"], r["metrics"][metric]["value"]) for r in runs
                  if r["workload"] == workload and not r["trace"] and metric in r["metrics"])


def verdict(a: Sequence[Tuple[int, float]], b: Sequence[Tuple[int, float]],
            better: str, bound: float) -> str:
    """The verdict for one metric from (seed, value) runs of each side."""
    sign = 1.0 if better == "lower" else -1.0
    va, vb = [v for _, v in a], [v for _, v in b]
    ma, mb = statistics.median(va), statistics.median(vb)
    all_better = max(sign * v for v in vb) < min(sign * v for v in va)
    if max(spread(va), spread(vb)) > bound:
        return "better" if all_better else "unresolved"
    change = sign * (mb - ma) / abs(ma) if ma else sign * (mb - ma)
    if change > bound:
        return "worse"
    seeds_a = dict(a)
    pairs = [(seeds_a[s], v) for s, v in b if s in seeds_a] or list(zip(va, vb))
    wins = sum(sign * vb_ < sign * va_ for va_, vb_ in pairs)
    q1, _, q3 = quartiles(va)
    if wins >= 0.9 * len(pairs) and sign * (ma - mb) > q3 - q1:
        return "better"
    return "unchanged"


def compare(a_runs: List[Dict[str, Any]], b_runs: List[Dict[str, Any]],
            bench: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present on both sides."""
    rows = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for metric in bench["end_to_end"]:
            a = _values(a_runs, workload, metric["name"])
            b = _values(b_runs, workload, metric["name"])
            if not a or not b:
                continue
            rows.append({
                "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                "a": quartiles([v for _, v in a]), "b": quartiles([v for _, v in b]),
                "n": (len(a), len(b)), "bound": metric["bound"],
                "verdict": verdict(a, b, metric["better"], metric["bound"]),
            })
    return rows


def format_rows(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<13} {'metric':<18} {'A median [q1, q3]':>30} "
             f"{'B median [q1, q3]':>30} {'bound':>6}  verdict"]
    for row in rows:
        cells = []
        for side in ("a", "b"):
            q1, med, q3 = row[side]
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {row['unit']}")
        lines.append(f"{row['workload']:<13} {row['metric']:<18} {cells[0]:>30} "
                     f"{cells[1]:>30} {row['bound']:>6.0%}  {row['verdict']}")
    return "\n".join(lines)
