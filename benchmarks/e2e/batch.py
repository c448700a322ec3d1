"""Batch workloads: compile cells through ``execute_cell``, timing each call.

``repro.exec.runner.execute_cell`` is the function every bench, fuzz and
serve worker calls for one cell.  The benchmark calls it inline (no pool),
clears the loop memo before each round as a fresh worker would start, and
times every call itself, between two speed probes (see ``speed``).
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.exec import runner
from repro.exec.cells import clear_loop_memo

from . import checks, spans, speed, workloads
from .run import ROOT, child_env
from .stats import as_metrics, geomean, latency_summary

SETUP_STARTS = 3

_SETUP_PROGRAM = """\
import json, sys, time
from repro.exec.runner import execute_cell
result = execute_cell(json.loads(sys.argv[1]), in_worker=False)
print(json.dumps({"done": time.monotonic(), "error": result["error"]}))
"""


def time_setup(workload: str) -> List[Tuple[float, float]]:
    """Seconds from starting a fresh interpreter to its first compiled cell:
    (at reference speed, wall) per start."""
    spec = json.dumps(workloads.setup_cell(workload).to_dict())
    out = []
    with speed.one_cpu():
        before = speed.probe()
        for _ in range(SETUP_STARTS):
            started = time.monotonic()
            proc = subprocess.run([sys.executable, "-c", _SETUP_PROGRAM, spec], cwd=ROOT,
                                  env=child_env(), capture_output=True, text=True,
                                  timeout=170)
            if proc.returncode != 0:
                raise checks.RunError(f"set-up interpreter failed:\n{proc.stderr[-2000:]}")
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            if report["error"]:
                raise checks.RunError(f"set-up cell failed: {report['error']}")
            raw = report["done"] - started
            after = speed.probe()
            out.append((speed.scaled(raw, before, after), raw))
            before = after
    return out


def _round(cells: List[Dict[str, Any]], names: List[str],
           watch: Optional[spans.Tracer] = None) -> Dict[str, Any]:
    """One pass over the cells: per-cell wall (``raw``) and reference-speed
    (``times``) seconds, and results.

    ``watch`` (a live tracer) tags spans with the cell's name and fails the
    run on an ILP solve stopped by the wall clock.
    """
    clear_loop_memo()
    raw: List[float] = []
    times: List[float] = []
    results: List[Dict[str, Any]] = []
    before = speed.probe()
    for spec, name in zip(cells, names):
        if watch is not None:
            watch.cell = name
            wall_hits = watch.counters["ilp.wall_limit_hits"]
        t0 = time.perf_counter()
        result = runner.execute_cell(spec, in_worker=False)
        raw.append(time.perf_counter() - t0)
        after = speed.probe()
        times.append(speed.scaled(raw[-1], before, after))
        before = after
        if watch is not None and watch.counters["ilp.wall_limit_hits"] > wall_hits:
            raise checks.RunError(f"{name}: ILP solve stopped by the wall clock")
        checks.check_budgets(spec["loop"], result, workloads.CP_OPTIONS["max_nodes"])
        results.append(result)
    return {"raw": raw, "times": times, "results": results}


def run_batch(workload: str, seed: int, seconds: float, trace: bool,
              out_dir: str, limit: Optional[int] = None) -> Dict[str, Any]:
    """One run of a batch workload; returns its record (see ``cli``)."""
    cells = [cell.to_dict() for cell in workloads.batch_cells(workload, seed, limit)]
    names = [checks.label(spec["loop"]) for spec in cells]
    record: Dict[str, Any] = {"workload": workload, "seed": seed, "trace": trace}
    setup = [] if trace else time_setup(workload)
    # Lazy imports and one-time initialisation land here, not in round 1.
    runner.execute_cell(workloads.setup_cell(workload).to_dict(), in_worker=False)

    n_rounds = 1 if trace else workloads.rounds(workload, seconds)
    if workload == "corpus-most":
        with spans.Tracer(spans.ILP_WATCH) as watch:
            passes = [_round(cells, names, watch) for _ in range(n_rounds)]
    else:
        passes = [_round(cells, names) for _ in range(n_rounds)]
    if trace:
        with spans.Tracer() as tracer:
            passes.append(_round(cells, names, tracer))
        record["trace_file"] = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
        tracer.write_chrome_trace(record["trace_file"])
        record["layers"] = tracer.layer_metrics()
        untraced, traced = (sum(p["times"]) for p in passes)
        record["layers"]["trace.overhead"] = traced / untraced - 1

    first = passes[0]["results"]
    for later in passes[1:]:
        for spec, a, b in zip(cells, first, later["results"]):
            checks.check_repeat(spec["loop"], a, b)

    failures, oracle_nan, failed_cells = [], [], 0
    for spec, name, result in zip(cells, names, first):
        found, nan_only = checks.classify(spec, result)
        failures += [f"{name}: {problem}" for problem in found]
        failed_cells += bool(found)
        if nan_only:
            oracle_nan.append(spec["loop"])
    record.update(
        attempted=len(cells) * len(passes), failed=failed_cells * len(passes),
        failures=failures, oracle_nan=oracle_nan,
    )
    if not trace:
        record.update(_metrics(cells, passes, setup))
    return record


def _timings(passes: List[Dict[str, Any]], key: str) -> Dict[str, Any]:
    """compile_s, loop_geomean_ms and the per-cell latency sample, from the
    ``"times"`` (reference speed) or ``"raw"`` (wall) cell times."""
    n = len(passes[0][key])
    per_cell_ms = [statistics.median(p[key][i] for p in passes) * 1e3 for i in range(n)]
    samples_ms = [t * 1e3 for p in passes for t in p[key]]
    return {
        "compile_s": statistics.median(sum(p[key]) for p in passes),
        "loop_geomean_ms": geomean(per_cell_ms),
        "per_cell_ms": per_cell_ms,
        "latency": latency_summary(samples_ms),
    }


def _metrics(cells: List[Dict[str, Any]], passes: List[Dict[str, Any]],
             setup: List[Tuple[float, float]]) -> Dict[str, Any]:
    scaled, raw = _timings(passes, "times"), _timings(passes, "raw")
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup),
                    statistics.median(r for _, r in setup), len(setup)),
        "compile_s": (scaled["compile_s"], raw["compile_s"], len(passes)),
        "loop_geomean_ms": (scaled["loop_geomean_ms"], raw["loop_geomean_ms"], len(cells)),
        "req_p50_ms": (scaled["latency"]["p50"], raw["latency"]["p50"],
                       scaled["latency"]["n"]),
        **checks.quality_metrics([(spec["loop"], r)
                                  for spec, r in zip(cells, passes[0]["results"])]),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, None, 1),
    }
    return {
        "rounds": len(passes),
        "metrics": as_metrics(metrics),
        "tail": scaled["latency"],
        "cell_ms": {spec["loop"]: ms for spec, ms in zip(cells, scaled["per_cell_ms"])},
    }
