"""repro.obs — tracing, metrics and search-effort profiling.

The observability subsystem for all three pipeliners.  Three layers:

* :mod:`repro.obs.recorder` — spans, instant events and counters behind a
  process-wide recorder.  Disabled (the default) it is a set of no-ops;
  enabled it buffers Chrome-trace-shaped events and aggregates counters.
* :mod:`repro.obs.export` — JSONL spools, Chrome trace-event export
  (``chrome://tracing`` / Perfetto), merging and validation.
* :mod:`repro.obs.report` — the per-loop search-effort table behind
  ``python -m repro bench --trace`` (SGI B&B nodes vs MOST ILP nodes vs wall
  time: the paper's §4.7 scheduling-time comparison).
* :mod:`repro.obs.explain` — II-gap attribution: which constraint
  (recurrence, resource, register pressure, search budget or exhaustion)
  binds each loop's achieved II, read from the per-II trail the driver
  already wrote, behind ``python -m repro explain``.
* :mod:`repro.obs.diffbench` — BENCH_*.json regression diffing with
  cause attribution, behind ``python -m repro diff``; its timing
  verdicts come from :mod:`repro.obs.trend`.
* :mod:`repro.obs.service` — request latency percentiles, queue depth,
  load-shedding and cache-tier counters for the scheduling daemon
  (:mod:`repro.serve`), rendered into ``BENCH_service.json``, plus the
  Prometheus text exposition and the NDJSON slow-request log.
* :mod:`repro.obs.history` — the append-only run-history store
  (``benchmarks/history/<name>/<ts>__<sha12>.json``) every bench,
  serve-selftest and microbench run files itself into, stamped by
  :mod:`repro.obs.provenance` (git SHA, host fingerprint, versions).
* :mod:`repro.obs.stats` / :mod:`repro.obs.trend` — stdlib rank
  statistics (Mann–Whitney U, Cliff's delta, bootstrap CIs, Kendall
  tau) and the per-series trend verdicts (stable / noisy / drift /
  step_change with commit-range attribution) behind
  ``python -m repro trend`` and ``repro diff --trend``; ``TOLERANCES``
  there is the one regression policy for timing, latency and rate.
* :mod:`repro.obs.html` — the self-contained ``report.html`` dashboard
  behind ``python -m repro report --html``.

Typical use::

    from repro.obs import recording
    from repro.obs.export import write_chrome_trace

    with recording() as rec:
        pipeline_loop(loop)
    print(rec.counters["bnb.placements"], rec.counters["bnb.backtracks"])
    write_chrome_trace(rec, "trace.json")

Counter namespace (aggregated per recorder, folded into ``BENCH_*.json``
by repro.exec): ``bnb.*`` (placements, backtracks, prune.<reason>),
``ii.attempts``, ``spill.rounds``/``spill.values``, ``regalloc.*``,
``ilp.*`` (solves, nodes, simplex_iters, node_limit_hits), the optimal
drivers' per-backend probe effort ``most.<backend>.*`` and
``portfolio.<backend>.*`` (seconds, nodes, sat, unsat, unknown; each
probe's granted budget slice rides on its ``most.probe`` /
``portfolio.probe`` span) and ``rau.*`` (placements, evictions).
"""

from .. import _lazy_exports
from .recorder import (
    NULL,
    NullRecorder,
    Recorder,
    TraceRecorder,
    get_recorder,
    recording,
    set_recorder,
)

#: Each lazily re-exported name and the submodule that defines it.  The
#: recorder above is eager (the pipeliners reach it through this package);
#: the other layers load on first access, so a pipeliner importing
#: ``repro.obs`` pays for no exporter, report or service metric.
_EXPORTS = {
    **dict.fromkeys(
        ("merge_jsonl", "read_jsonl", "validate_chrome_trace_file", "validate_trace_events",
         "write_chrome_trace", "write_jsonl"),
        "export",
    ),
    **dict.fromkeys(("effort_rows", "format_effort_table"), "report"),
    **dict.fromkeys(("LatencyStats", "ServiceMetrics"), "service"),
}


def counter_signature(counters, prefix=""):
    """AFL-style coverage signature of a counter mapping.

    Buckets every counter value into its power-of-two magnitude (``0``,
    ``1``, ``2-3``, ``4-7``, ...) and returns the frozen set of
    ``(prefix+name, bucket)`` pairs.  Two runs share a signature element
    exactly when a search statistic landed in the same magnitude class —
    the coverage signal the differential fuzzer (:mod:`repro.fuzz`) uses
    to decide a generated loop exercised new search behaviour (new prune
    reason, an order of magnitude more B&B nodes, first simplex
    iteration, ...) rather than merely a new shape.
    """
    sig = set()
    for name, value in counters.items():
        try:
            bucket = int(value).bit_length()
        except (TypeError, ValueError):
            continue
        sig.add((f"{prefix}{name}", bucket))
    return frozenset(sig)


__all__ = [
    "NULL",
    "NullRecorder",
    "Recorder",
    "TraceRecorder",
    "counter_signature",
    "get_recorder",
    "recording",
    "set_recorder",
    *_EXPORTS,
]

__getattr__ = _lazy_exports(__name__, _EXPORTS)
