"""Command line: ``run`` (the default) and ``compare``.

``run --workload W --seed N --seconds S --trace 0|1`` runs one workload
(all four without ``--workload``), prints every metric by name with its
unit and sample count, appends the run's record to ``--out``, and ends
with one JSON line: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
named in BENCHMARK.json.  An invalid run prints why, naming the cell, and
exits 1 without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from . import checks, compare, workloads
from .run import ROOT
from .stats import geomean

RESULTS_DIR = os.path.join(ROOT, "benchmarks", "e2e", "results")
SCHEDULER = {"corpus-sgi": "sgi", "corpus-most": "most", "generated-cp": "portfolio/cp",
             "serve-open": "serve (sgi)"}


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run_parser(bench: Dict[str, Any]) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python3 benchmarks/e2e/run.py [run]",
                                description=__doc__.split("\n\n")[1])
    p.add_argument("--workload", choices=workloads.WORKLOADS,
                   help="one workload (default: all four)")
    p.add_argument("--seed", type=int, default=0, help="drives every random choice")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"],
                   help="work per run, as nominal seconds (default: %(default)s)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 = one untraced and one traced round, per-layer metrics")
    p.add_argument("--out", default=os.path.join(RESULTS_DIR, "runs.json"),
                   help="JSON list the run records are appended to (default: %(default)s)")
    p.add_argument("--limit", type=int, default=None,
                   help="only the first N loops of each workload (quick checks)")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    bench = load_benchmark()
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="python3 benchmarks/e2e/run.py compare",
                                    description=compare.__doc__.split("\n\n")[0])
        p.add_argument("a", help="runs of the parent (a --out file)")
        p.add_argument("b", help="runs of the change")
        args = p.parse_args(argv[1:])
        rows = compare.compare(compare.load_runs(args.a), compare.load_runs(args.b), bench)
        print(compare.format_rows(rows))
        return 0
    if argv[:1] == ["run"]:
        argv = argv[1:]
    args = _run_parser(bench).parse_args(argv)
    return run(args, bench)


def run(args: argparse.Namespace, bench: Dict[str, Any]) -> int:
    from .batch import run_batch
    from .serveload import run_serve

    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    records = []
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        try:
            if workload == "serve-open":
                record = run_serve(args.seed, args.seconds, bool(args.trace), out_dir, args.limit)
            else:
                record = run_batch(workload, args.seed, args.seconds, bool(args.trace),
                                   out_dir, args.limit)
        except checks.RunError as exc:
            print(f"e2e: invalid run of {workload} (seed {args.seed}): {exc}", file=sys.stderr)
            return 1
        record["seconds"] = args.seconds
        print(report(record, bench), flush=True)
        _append(args.out, record)
        records.append(record)
    ratio = section47(records)
    if ratio:
        print(ratio)
    print(json.dumps(summary(records, bench)))
    return 0


def _append(path: str, record: Dict[str, Any]) -> None:
    records = []
    if os.path.exists(path):
        with open(path) as handle:
            records = json.load(handle)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(records + [record], handle)
    os.replace(tmp, path)


def _units(bench: Dict[str, Any], trace: bool) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def _values(record: Dict[str, Any], bench: Dict[str, Any]) -> Dict[str, float]:
    """The record's value of every metric its mode reports.  A traced run
    measures either the serve layer or the batch layers; the other side's
    metrics read 0."""
    if not record["trace"]:
        return {name: record["metrics"][name]["value"] for name in _units(bench, False)}
    serve = record["workload"] == "serve-open"
    layers = record["layers"]
    return {name: layers[name] if name.startswith("serve.") == serve else 0.0
            for name in _units(bench, True)}


def report(record: Dict[str, Any], bench: Dict[str, Any]) -> str:
    """The human-readable block of one run."""
    workload, trace = record["workload"], record["trace"]
    units, values = _units(bench, trace), _values(record, bench)
    lines = [f"== {workload}  seed {record['seed']}  "
             + ("traced" if trace else f"{record['rounds']} round(s)")]
    if trace:
        lines.append(f"  {'metric':<30} {'value':>14}  unit")
        for name, unit in units.items():
            lines.append(f"  {name:<30} {values[name]:>14.6g}  {unit}")
        if "trace_file" in record:
            lines.append(f"  tracing overhead {values['trace.overhead']:+.1%} of compile_s; "
                         f"cell time not covered by a span {values['trace.uncovered_share']:.1%}")
            lines.append(f"  chrome trace: {record['trace_file']}")
    else:
        metrics = record["metrics"]
        for name, unit in units.items():
            raw = metrics[name].get("raw")
            wall = "" if raw is None else f"  (wall {raw:.6g})"
            lines.append(f"  {name:<20} {values[name]:>14.6g} {unit:<6} "
                         f"n={metrics[name]['n']}{wall}")
        tail = record["tail"]
        what = ("request latency from due time" if workload == "serve-open"
                else "per-cell time at reference speed")
        lines.append(
            f"  {what} ({SCHEDULER[workload]}): p50 {tail['p50']:.4g} ms, "
            f"p{tail['level']} {tail['tail']:.4g} ms (n={tail['n']}, {tail['beyond']} beyond)")
        if "late_p99_ms" in record:
            lines.append(f"  generator lateness p99 {record['late_p99_ms']:.3g} ms")
    lines.append(f"  correctness: {record['attempted']} attempted, {record['failed']} failed")
    lines += [f"    FAILED {failure}" for failure in record["failures"]]
    for key in record["oracle_nan"]:
        lines.append(f"    oracle-nan {checks.label(key)}: the functional check fails on NaN "
                     f"values that agree bit for bit; token {key}")
    return "\n".join(lines)


def section47(records: List[Dict[str, Any]]) -> Optional[str]:
    """The paper's compile-speed ratio (MOST over SGI per loop), when both
    corpus workloads ran in this invocation."""
    by = {r["workload"]: r for r in records if not r["trace"]}
    if "corpus-sgi" not in by or "corpus-most" not in by:
        return None
    sgi, most = by["corpus-sgi"]["cell_ms"], by["corpus-most"]["cell_ms"]
    shared = sorted(set(sgi) & set(most))
    ratio = geomean([most[key] / sgi[key] for key in shared])
    return (f"section 4.7: MOST / SGI per-loop compile time, "
            f"geomean over {len(shared)} loops: {ratio:.1f}x")


def summary(records: List[Dict[str, Any]], bench: Dict[str, Any]) -> Dict[str, Any]:
    """The final JSON line; metric names get a ``workload/`` prefix when
    several workloads ran."""
    metrics: Dict[str, Any] = {}
    for record in records:
        values = _values(record, bench)
        prefix = f"{record['workload']}/" if len(records) > 1 else ""
        for name, unit in _units(bench, record["trace"]).items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
            "failed": failed, "metrics": metrics}
