"""Command-line entry point: ``python -m repro <experiment> [...]``.

Regenerates the paper's tables and figures (and the extensions) without
writing any code.  ``python -m repro --list`` shows what is available.

Ten subcommands sit beside the experiment runner:

* ``python -m repro verify <corpus>`` — static verification sweep;
* ``python -m repro bench [--quick]`` — the timed (loop × scheduler)
  grid, emitted as ``benchmarks/output/BENCH_pipeline.json``;
* ``python -m repro sweep <corpus>`` — the same grid for one corpus;
* ``python -m repro trace <corpus>`` — run the grid under the repro.obs
  recorder and print the per-loop search-effort table (SGI B&B nodes vs
  MOST ILP nodes vs wall time), writing JSONL spools and a merged Chrome
  trace (``chrome://tracing`` / Perfetto);
* ``python -m repro explain <corpus>`` — attribute every cell's achieved
  II to its binding constraint (recurrence, resource, register pressure,
  bank pairing, search budget);
* ``python -m repro analyze <corpus> [--check]`` — certified refined II
  lower bounds per loop (MinII → refined bound → achieved II), with every
  certificate independently validated under ``--check``;
* ``python -m repro diff <old> <new> [--strict]`` — attributed regression
  diff of two BENCH_*.json runs (the CI gate); ``--trend`` additionally
  judges the fresh run against the stored run history;
* ``python -m repro trend <name> [--check]`` — classify every metric
  series of the run-history store (``benchmarks/history/``) as stable,
  noisy, drift or step_change, attributing changepoints to commit ranges;
* ``python -m repro report --html`` — assemble the self-contained
  ``report.html`` dashboard (figure tables, II explanations, bench diff);
* ``python -m repro fuzz --seconds N --jobs J`` — coverage-guided
  differential fuzzing of the three pipeliners; oracle violations are
  minimized into ``tests/fuzz_corpus/`` reproducers;
* ``python -m repro serve`` — the scheduling daemon: an asyncio NDJSON
  front end over a batching dispatcher, two-tier result cache and a
  persistent worker pool; ``--selftest`` boots an in-process daemon,
  replays the committed corpora through the wire protocol and emits
  ``benchmarks/output/BENCH_service.json``;
* ``python -m repro cache`` — disk-tier cache statistics and
  ``--prune --max-bytes N`` garbage collection.

The experiment runner and both bench subcommands share the parallel
cached engine: ``--jobs N`` fans cells out over worker processes,
``--cache-dir``/``--no-cache`` control the content-addressed result
cache (an edited kernel, option, or scheduler source invalidates exactly
the affected cells).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from .eval import (
    ExperimentConfig,
    ext_overhead_objective,
    ext_rau_comparison,
    fig2_pipelining_effectiveness,
    fig3_priority_heuristics,
    fig4_membank_effectiveness,
    fig5_ilp_vs_heuristic,
    fig6_livermore,
    fig7_static_quality,
    sec47_compile_speed,
    sec5_ii_parity,
    sec5_scalability,
)

EXPERIMENTS = {
    "fig2": (fig2_pipelining_effectiveness, "SPEC92 fp: pipelining on vs off"),
    "fig3": (fig3_priority_heuristics, "single priority heuristic vs all four"),
    "fig4": (fig4_membank_effectiveness, "memory-bank heuristics on vs off"),
    "fig5": (fig5_ilp_vs_heuristic, "ILP vs MIPSpro, with/without bank pairing"),
    "fig6": (fig6_livermore, "Livermore kernels, short and long trip counts"),
    "fig7": (fig7_static_quality, "registers and overhead, MIPSpro minus ILP"),
    "sec47": (sec47_compile_speed, "compile-speed comparison"),
    "scalability": (sec5_scalability, "largest schedulable loop per technique"),
    "iiparity": (sec5_ii_parity, "how often the ILP finds a lower II"),
    "ext-rau": (ext_rau_comparison, "extension: add Rau94 iterative modulo scheduling"),
    "ext-overhead": (ext_overhead_objective, "extension: overhead-minimising ILP objective"),
}


def _verify_main(argv, parser) -> int:
    """``python -m repro verify <corpus>``: sweep and verify all artifacts."""
    vp = argparse.ArgumentParser(
        prog="python -m repro verify",
        description="Independently verify every artifact the pipeliners "
        "produce over a workload corpus (exit 1 on ERROR diagnostics).",
    )
    vp.add_argument(
        "corpus", nargs="?", default="all",
        help="livermore, spec92 or all (default: all)",
    )
    vp.add_argument(
        "--schedulers", default="sgi,most,rau",
        help="comma-separated subset of sgi,most,rau (default: all three)",
    )
    vp.add_argument(
        "--ilp-seconds", type=float, default=2.0,
        help="MOST ILP budget per loop during the sweep (default: 2s)",
    )
    vp.add_argument(
        "-v", "--verbose", action="store_true",
        help="print every diagnostic, warnings included",
    )
    args = vp.parse_args(argv)

    from .verify import verify_corpus

    schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    try:
        sweep = verify_corpus(
            args.corpus, schedulers=schedulers, most_time_limit=args.ilp_seconds
        )
    except ValueError as exc:  # unknown corpus / scheduler name
        vp.error(str(exc))
    print(sweep.formatted(verbose=args.verbose))
    return 0 if sweep.ok else 1


def _add_exec_arguments(parser: argparse.ArgumentParser) -> None:
    """The engine flags shared by bench, sweep, and the experiment runner."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes to fan cells out over (default: 1, inline)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache directory",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even if --cache-dir is set",
    )


def _bench_main(argv, sweep: bool) -> int:
    """``python -m repro bench`` / ``python -m repro sweep <corpus>``."""
    from .exec.bench import (
        DEFAULT_CACHE_DIR,
        DEFAULT_OUTPUT_DIR,
        BenchOptions,
        run_pipeline_bench,
        run_sweep,
    )

    prog = "python -m repro sweep" if sweep else "python -m repro bench"
    bp = argparse.ArgumentParser(
        prog=prog,
        description="Time every (loop × scheduler) cell of the corpus grid "
        "and write the measurements as a BENCH json.",
    )
    if sweep:
        bp.add_argument("corpus", help="corpus to sweep: livermore, spec92 or recbound")
    bp.add_argument(
        "--quick", action="store_true",
        help="CI smoke configuration: livermore + recbound, tighter solver budget",
    )
    _add_exec_arguments(bp)
    bp.set_defaults(cache_dir=DEFAULT_CACHE_DIR)
    bp.add_argument(
        "--schedulers", default="sgi,most,rau,portfolio",
        help="comma-separated subset of sgi,most,rau,baseline,portfolio "
        "(default: sgi,most,rau,portfolio)",
    )
    bp.add_argument(
        "--output-dir", default=str(DEFAULT_OUTPUT_DIR), metavar="DIR",
        help=f"where BENCH_*.json goes (default: {DEFAULT_OUTPUT_DIR})",
    )
    bp.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="hard per-cell deadline (default: 120s, 60s with --quick)",
    )
    bp.add_argument("--seed", type=int, default=0, help="simulation seed (default: 0)")
    bp.add_argument(
        "--trace", action="store_true",
        help="run cells under the repro.obs recorder: obs counters land in "
        "the BENCH json, JSONL spools and a merged Chrome trace in --trace-dir",
    )
    bp.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="trace output directory (default: <output-dir>/trace; implies --trace)",
    )
    bp.add_argument(
        "--explain", action="store_true",
        help="attribute every cell's achieved II to its binding constraint; "
        "explanations land in the BENCH json cells and binding counts in "
        "the summary",
    )
    bp.add_argument(
        "--profile", action="store_true",
        help="instead of benching, cProfile each scheduler's cells inline "
        "and print the top-20 cumulative-time table per scheduler",
    )
    bp.add_argument(
        "--history-dir", default="benchmarks/history", metavar="DIR",
        help="run-history store the finished BENCH payload is appended to "
        "(default: benchmarks/history)",
    )
    bp.add_argument(
        "--no-history", action="store_true",
        help="do not file this run in the run-history store",
    )
    args = bp.parse_args(argv)

    trace = args.trace or args.trace_dir is not None
    trace_dir = args.trace_dir
    if trace and trace_dir is None:
        trace_dir = str(pathlib.Path(args.output_dir) / "trace")
    options = BenchOptions(
        quick=args.quick,
        schedulers=tuple(s.strip() for s in args.schedulers.split(",") if s.strip()),
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        seed=args.seed,
        output_dir=args.output_dir,
        trace=trace,
        trace_dir=trace_dir,
        explain=args.explain,
        history_dir=None if args.no_history else pathlib.Path(args.history_dir),
    )
    if args.cell_timeout is not None:
        options.cell_timeout = args.cell_timeout
    if args.profile:
        from .exec.bench import profile_schedulers

        if sweep:
            options.corpora = (args.corpus,)
        for scheduler, table in profile_schedulers(options).items():
            print(f"=== cProfile: {scheduler} ===")
            print(table)
        return 0
    try:
        if sweep:
            report, path = run_sweep(args.corpus, options)
        else:
            report, path = run_pipeline_bench(options)
    except ValueError as exc:  # unknown corpus / scheduler name
        bp.error(str(exc))
    totals = report["totals"]
    cache = report["cache"]
    cache_line = (
        "cache disabled"
        if cache is None
        else f"cache {cache['hits']} hits / {cache['misses']} misses ({cache['dir']})"
    )
    print(
        f"\n{totals['cells']} cells in {report['wall_seconds']:.1f}s "
        f"(jobs={report['jobs']}): {totals['timeouts']} timeouts, "
        f"{totals['fallbacks']} fallbacks, {totals['errors']} errors; {cache_line}"
    )
    print(f"wrote {path}")
    return 1 if totals["errors"] else 0


def _trace_main(argv) -> int:
    """``python -m repro trace <corpus>``: the search-effort profile.

    Runs the (loop × scheduler) grid with tracing on and prints the
    per-loop effort table behind the paper's §4.7 scheduling-time
    comparison.  MOST runs our own branch-and-bound engine here so its
    node and simplex counters are populated; the cache is bypassed because
    counters and timings must come from live solves.
    """
    from .exec.bench import merge_trace_dir
    from .exec.cells import Cell, corpus_loop_keys
    from .exec.runner import ExecEngine
    from .obs import format_effort_table, validate_chrome_trace_file

    tp = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Profile every (loop × scheduler) cell under the "
        "repro.obs recorder: print the per-loop search-effort table and "
        "write JSONL spools plus a merged Chrome trace.",
    )
    tp.add_argument(
        "corpus", nargs="?", default="livermore",
        help="corpus to profile: livermore, spec92 or recbound (default: livermore)",
    )
    tp.add_argument(
        "--schedulers", default="sgi,most,rau",
        help="comma-separated subset of sgi,most,rau (default: all three)",
    )
    tp.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="profile only the first N loops of the corpus",
    )
    tp.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes to fan cells out over (default: 1, inline)",
    )
    tp.add_argument(
        "--ilp-seconds", type=float, default=5.0,
        help="MOST ILP budget per loop (default: 5s)",
    )
    tp.add_argument(
        "--max-nodes", type=int, default=4000,
        help="MOST ILP node budget per solve (default: 4000)",
    )
    tp.add_argument(
        "--trace-dir", default="benchmarks/output/trace", metavar="DIR",
        help="where JSONL spools and the merged trace.json go "
        "(default: benchmarks/output/trace)",
    )
    tp.add_argument(
        "--cell-timeout", type=float, default=60.0, metavar="SECONDS",
        help="hard per-cell deadline (default: 60s)",
    )
    tp.add_argument("--seed", type=int, default=0, help="simulation seed (default: 0)")
    tp.add_argument(
        "--check", action="store_true",
        help="validate the JSONL spools and merged Chrome trace; exit "
        "non-zero on schema or nesting problems",
    )
    args = tp.parse_args(argv)

    schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    unknown = [s for s in schedulers if s not in ("sgi", "most", "rau")]
    if unknown:
        tp.error(f"unknown schedulers: {', '.join(unknown)}")
    try:
        keys = corpus_loop_keys(args.corpus)
    except ValueError as exc:
        tp.error(str(exc))
    if args.limit is not None:
        keys = keys[: args.limit]

    def sched_options(scheduler: str):
        if scheduler == "most":
            # Our own B&B engine: unlike scipy's HiGHS, it reports nodes
            # and simplex iterations for every solve.
            return {
                "time_limit": args.ilp_seconds,
                "engine": "bnb",
                "max_nodes": args.max_nodes,
                "max_ops": 61,
            }
        return {}

    cells = [
        Cell.make(
            key,
            scheduler,
            sched_options(scheduler),
            seed=args.seed,
            simulate=False,
            verify=False,
            trace=True,
            trace_dir=args.trace_dir,
        )
        for key in keys
        for scheduler in schedulers
    ]
    engine = ExecEngine(jobs=args.jobs, cache=None, default_timeout=args.cell_timeout)
    results = engine.run(cells)
    ordered = [results[cell] for cell in cells]
    print(format_effort_table(ordered))

    merged = merge_trace_dir(args.trace_dir)
    if merged is not None:
        print(f"\nwrote {merged} (load in chrome://tracing or https://ui.perfetto.dev)")
    errors = sum(1 for res in ordered if res.error is not None)
    if errors:
        print(f"{errors} cells errored", file=sys.stderr)
        return 1

    if args.check:
        if merged is None:
            print("--check: no trace files were written", file=sys.stderr)
            return 1
        problems = validate_chrome_trace_file(merged)
        if problems:
            print(f"--check: {merged} is invalid:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        traced = sum(1 for res in ordered if res.obs)
        if not traced:
            print("--check: no cell produced obs counters", file=sys.stderr)
            return 1
        print(f"--check: {merged} valid; {traced}/{len(ordered)} cells traced")
    return 0


def _explain_main(argv) -> int:
    """``python -m repro explain <corpus>``: II-gap attribution.

    Runs every (loop × scheduler) cell of the corpus and attributes its
    achieved II to exactly one binding-constraint class: the critical
    recurrence circuit or bottleneck resource when II == MinII, and a
    classified replay of the failed II−1 attempt (register pressure, bank
    pairing, search budget/exhaustion) when II > MinII.
    """
    ep = argparse.ArgumentParser(
        prog="python -m repro explain",
        description="Attribute every (loop × scheduler) cell's achieved II "
        "to its binding constraint.",
    )
    ep.add_argument(
        "corpus", nargs="?", default="livermore",
        help="corpus to explain: livermore, spec92 or recbound (default: livermore)",
    )
    ep.add_argument(
        "--schedulers", default="sgi,most,rau",
        help="comma-separated subset of sgi,most,rau (default: all three)",
    )
    ep.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="explain only the first N loops of the corpus",
    )
    ep.add_argument(
        "--ilp-seconds", type=float, default=5.0,
        help="MOST ILP budget per loop, production run and replay (default: 5s)",
    )
    ep.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="also write the explanations as JSON to this path ('-' for stdout)",
    )
    args = ep.parse_args(argv)

    from .obs.explain import (
        EXPLAIN_SCHEDULERS,
        explain_corpus,
        explanations_to_json,
        format_explanations,
    )

    schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    unknown = [s for s in schedulers if s not in EXPLAIN_SCHEDULERS]
    if unknown:
        ep.error(f"unknown schedulers: {', '.join(unknown)}")
    try:
        explanations = explain_corpus(
            args.corpus,
            schedulers=schedulers,
            scheduler_options={"most": {"time_limit": args.ilp_seconds}},
            limit=args.limit,
        )
    except ValueError as exc:  # unknown corpus
        ep.error(str(exc))
    if args.json_out == "-":
        print(explanations_to_json(explanations))
    else:
        print(format_explanations(explanations))
        if args.json_out:
            path = pathlib.Path(args.json_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(explanations_to_json(explanations) + "\n")
            print(f"wrote {path}")
    return 0


def _analyze_main(argv) -> int:
    """``python -m repro analyze <corpus>``: certified II lower bounds.

    Prints, per loop, MinII → the refined certified bound (schedulability
    and allocatability) → the II each pipeliner achieved.  ``--check``
    validates every shipped certificate with the independent checker in
    ``repro.verify`` and cross-checks each achieved or proved-optimal II
    against the certified bounds, exiting non-zero on any failure.
    """
    import json as _json

    ap = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="Derive certified refined II lower bounds for every "
        "loop of a corpus and compare them with the achieved IIs.",
    )
    ap.add_argument(
        "corpus", nargs="?", default="livermore",
        help="livermore, spec92, recbound or all (default: livermore)",
    )
    ap.add_argument(
        "--check", action="store_true",
        help="validate every certificate with the independent checker and "
        "cross-check achieved IIs against the bounds (exit 1 on failure)",
    )
    ap.add_argument(
        "--schedulers", default="sgi,most,rau",
        help="comma-separated subset of sgi,most,rau, or 'none' for "
        "bounds only (default: all three)",
    )
    ap.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="analyze only the first N loops of the corpus",
    )
    ap.add_argument(
        "--ilp-seconds", type=float, default=2.0,
        help="MOST ILP budget per loop (default: 2s)",
    )
    ap.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="also write the per-loop analysis as JSON ('-' for stdout)",
    )
    ap.add_argument(
        "-v", "--verbose", action="store_true",
        help="print the table legend",
    )
    args = ap.parse_args(argv)

    from .analyze.api import ANALYZE_SCHEDULERS, analyze_corpus

    if args.schedulers.strip() == "none":
        schedulers = []
    else:
        schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
        unknown = [s for s in schedulers if s not in ANALYZE_SCHEDULERS]
        if unknown:
            ap.error(f"unknown schedulers: {', '.join(unknown)}")
    try:
        report = analyze_corpus(
            args.corpus,
            schedulers=schedulers,
            check=args.check,
            limit=args.limit,
            most_time_limit=args.ilp_seconds,
        )
    except ValueError as exc:  # unknown corpus
        ap.error(str(exc))
    payload = _json.dumps(
        [e.to_dict() for e in report.entries], indent=1, sort_keys=True
    )
    if args.json_out == "-":
        print(payload)
    else:
        print(report.formatted(verbose=args.verbose))
        if args.json_out:
            path = pathlib.Path(args.json_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(payload + "\n")
            print(f"wrote {path}")
    return 0 if report.ok else 1


def _report_main(argv) -> int:
    """``python -m repro report --html``: the one-file dashboard."""
    from .obs.diffbench import load_bench
    from .obs.explain import explain_corpus
    from .obs.html import validate_report_file, write_report

    rp = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Assemble figure tables, per-loop II explanations and "
        "the bench diff into one self-contained report.html (inline CSS/JS, "
        "opens offline).",
    )
    rp.add_argument(
        "--html", action="store_true",
        help="write the HTML dashboard (the default and only format; "
        "accepted for explicitness)",
    )
    rp.add_argument(
        "--output", default="benchmarks/output/report.html", metavar="PATH",
        help="where report.html goes (default: benchmarks/output/report.html)",
    )
    rp.add_argument(
        "--corpus", default="livermore",
        help="corpus for the II-explanation panel (default: livermore)",
    )
    rp.add_argument(
        "--schedulers", default="sgi,most,rau",
        help="schedulers for the II-explanation panel (default: all three)",
    )
    rp.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="explain only the first N loops of the corpus",
    )
    rp.add_argument(
        "--experiments", default="fig2,fig3,fig4,fig5,fig6,fig7",
        help="comma-separated experiment names for the figure-table panel, "
        "or 'none' (default: fig2..fig7)",
    )
    rp.add_argument(
        "--ilp-seconds", type=float, default=5.0,
        help="MOST ILP budget per loop (default: 5s)",
    )
    rp.add_argument(
        "--bench", default="benchmarks/output", metavar="PATH",
        help="BENCH json (file or directory) for the bench panel; skipped "
        "when absent (default: benchmarks/output)",
    )
    rp.add_argument(
        "--baseline", default="benchmarks/baseline", metavar="PATH",
        help="baseline BENCH json for the diff panel; skipped when absent "
        "(default: benchmarks/baseline)",
    )
    rp.add_argument(
        "--history-dir", default="benchmarks/history", metavar="DIR",
        help="run-history store for the trend panel; renders a placeholder "
        "when it holds fewer than two runs (default: benchmarks/history)",
    )
    rp.add_argument(
        "--history-last", type=int, default=20, metavar="N",
        help="trend panel looks at the last N stored runs (default: 20)",
    )
    _add_exec_arguments(rp)
    rp.add_argument(
        "--check", action="store_true",
        help="validate the written report (well-formedness, panel presence); "
        "exit non-zero on problems",
    )
    args = rp.parse_args(argv)

    schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    print(f"explaining {args.corpus} × {','.join(schedulers)} ...", flush=True)
    try:
        explanations = explain_corpus(
            args.corpus,
            schedulers=schedulers,
            scheduler_options={"most": {"time_limit": args.ilp_seconds}},
            limit=args.limit,
        )
    except ValueError as exc:
        rp.error(str(exc))

    tables, charts = [], []
    names = [] if args.experiments == "none" else [
        n.strip() for n in args.experiments.split(",") if n.strip()
    ]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        rp.error(f"unknown experiments: {', '.join(unknown)}")
    config = ExperimentConfig(
        most_time_limit=args.ilp_seconds,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
    )
    for name in names:
        print(f"running {name} ...", flush=True)
        result = EXPERIMENTS[name][0](config)
        tables.append(result.table)
        if result.chart:
            charts.append(result.chart)

    bench = diff = None
    try:
        bench = load_bench(args.bench)
    except (FileNotFoundError, OSError):
        print(f"no bench json under {args.bench}; bench panel skipped")
    if bench is not None:
        from .obs.diffbench import diff_reports

        try:
            diff = diff_reports(load_bench(args.baseline), bench)
        except (FileNotFoundError, OSError):
            print(f"no baseline under {args.baseline}; diff panel skipped")

    from .obs.trend import history_panel_data

    history = history_panel_data(
        pathlib.Path(args.history_dir), last=args.history_last
    )

    meta = {
        "corpus": args.corpus,
        "schedulers": ",".join(schedulers),
        "experiments": ",".join(names) or "none",
    }
    path = write_report(
        args.output,
        meta=meta,
        explanations=explanations,
        tables=tables,
        charts=charts,
        diff=diff,
        bench=bench,
        history=history,
    )
    print(f"wrote {path}")

    if args.check:
        required = ["explanations"] if explanations else []
        if tables or charts:
            required.append("figures")
        if diff is not None:
            required.append("diff")
        if bench is not None:
            required.append("bench")
        # The history panel always renders (placeholder when <2 runs).
        required.append("history")
        problems = validate_report_file(path, required)
        if problems:
            print(f"--check: {path} is invalid:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(f"--check: {path} valid ({', '.join(required) or 'no panels'})")
    return 0


def _fuzz_main(argv) -> int:
    """``python -m repro fuzz``: coverage-guided differential fuzzing.

    Exit status encodes the session's meaning: without ``--inject``, any
    finding is a live bug and the exit code is non-zero; under
    ``--inject`` the seeded fault *must* be found (a calibration run of
    the oracle), so zero findings is the failure.
    """
    from .fuzz import INJECTIONS, FuzzConfig, run_fuzz
    from .fuzz.corpus import DEFAULT_CORPUS_DIR
    from .schedulers import REGISTRY

    fp = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Generate loops by mutation and crossover, run them "
        "through sgi, most and rau under a layered differential oracle "
        "(crash / independent verify / functional sim / MinII / proved "
        "optimality), and minimize any violation into a reproducer in "
        "the regression corpus.",
    )
    fp.add_argument(
        "--seconds", type=float, default=60.0,
        help="fuzzing wall-clock budget (default: 60)",
    )
    fp.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes to fan cells out over (default: 1)",
    )
    fp.add_argument("--seed", type=int, default=0, help="session seed (default: 0)")
    fp.add_argument(
        "--schedulers", default="sgi,most,rau",
        help="comma-separated subset of sgi,most,rau,portfolio "
        "(default: sgi,most,rau)",
    )
    fp.add_argument(
        "--oracle", default=None, choices=("backend-agreement",),
        help="enable an extra oracle layer; 'backend-agreement' adds the "
        "portfolio scheduler (cross-check on) so every generated loop "
        "also races the CP and ILP backends against each other",
    )
    fp.add_argument(
        "--inject", default=None, choices=sorted(INJECTIONS),
        help="seed a known fault into the pipeline; the session then "
        "verifies the oracle catches it (exit 1 if it does not)",
    )
    fp.add_argument(
        "--max-ops", type=int, default=16,
        help="corpus-admission cap on generated loop size (default: 16)",
    )
    fp.add_argument(
        "--max-loops", type=int, default=None, metavar="N",
        help="stop after N generated loops even if time remains",
    )
    fp.add_argument(
        "--corpus-dir", default=DEFAULT_CORPUS_DIR, metavar="DIR",
        help=f"regression corpus directory (default: {DEFAULT_CORPUS_DIR})",
    )
    fp.add_argument(
        "--no-write", action="store_true",
        help="do not write minimized reproducers into the corpus",
    )
    fp.add_argument(
        "--findings-dir", default=None, metavar="DIR",
        help="also copy new reproducers here (CI artifact upload)",
    )
    fp.add_argument(
        "--cell-timeout", type=float, default=20.0, metavar="SECONDS",
        help="hard per-cell deadline (default: 20s)",
    )
    args = fp.parse_args(argv)

    schedulers = tuple(s.strip() for s in args.schedulers.split(",") if s.strip())
    unknown = [s for s in schedulers if s not in REGISTRY]
    if unknown:
        fp.error(f"unknown schedulers: {', '.join(unknown)}")
    if args.oracle == "backend-agreement" and "portfolio" not in schedulers:
        schedulers = schedulers + ("portfolio",)
    config = FuzzConfig(
        seconds=args.seconds,
        jobs=args.jobs,
        seed=args.seed,
        schedulers=schedulers,
        max_ops=args.max_ops,
        cell_timeout=args.cell_timeout,
        inject=args.inject,
        corpus_dir=args.corpus_dir,
        write=not args.no_write,
        findings_dir=args.findings_dir,
        max_loops=args.max_loops,
    )
    report = run_fuzz(config, log=print)
    stats = report.stats
    print(
        f"\n{stats.loops} loops ({stats.cells} cells) in "
        f"{stats.wall_seconds:.1f}s: {stats.violations} violations, "
        f"{len(report.findings)} distinct findings, "
        f"coverage {stats.coverage_keys} keys, corpus {stats.corpus_size}"
    )
    if args.inject:
        caught = [f for f in report.findings if f.reproduced]
        if not caught:
            print(f"injected fault {args.inject!r} was NOT caught", file=sys.stderr)
            return 1
        print(f"injected fault {args.inject!r} caught and minimized")
        return 0
    return 1 if report.findings else 0


def _serve_main(argv) -> int:
    """``python -m repro serve``: the scheduling daemon (or its selftest)."""
    from .exec.cache import DEFAULT_CACHE_DIR

    sp = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the scheduling daemon: newline-delimited JSON "
        "requests over TCP and/or a unix socket; cache hits are answered at "
        "admission from a two-tier (memory LRU + disk) result cache, misses "
        "are solved once each on a persistent worker pool. "
        "--selftest instead boots an in-process daemon on a temporary unix "
        "socket, replays the committed corpora through the wire protocol "
        "at the requested concurrency and writes BENCH_service.json.",
    )
    sp.add_argument(
        "--host", default="127.0.0.1",
        help="TCP bind address (default: 127.0.0.1)",
    )
    sp.add_argument(
        "--port", type=int, default=None, metavar="N",
        help="TCP port to listen on (0 = ephemeral; omit for no TCP listener)",
    )
    sp.add_argument(
        "--unix", default=None, metavar="PATH",
        help="unix socket path to listen on (daemon needs --port and/or --unix)",
    )
    sp.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="persistent worker processes, at least 1; each runs its cells "
        "under a SIGALRM deadline with a kill-and-respawn backstop (default: 2)",
    )
    sp.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="max distinct solves outstanding; a new cache miss beyond it is "
        "shed with an 'overloaded' + retry_after response, while cache hits "
        "and requests for a key already being solved are always served "
        "(default: 64)",
    )
    sp.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"disk tier of the result cache (default: {DEFAULT_CACHE_DIR})",
    )
    sp.add_argument(
        "--no-cache", action="store_true",
        help="run memory-only (no disk cache tier)",
    )
    sp.add_argument(
        "--lru-entries", type=int, default=1024, metavar="N",
        help="in-process LRU entry budget (default: 1024)",
    )
    sp.add_argument(
        "--lru-mb", type=float, default=64.0, metavar="MB",
        help="in-process LRU byte budget in MiB (default: 64)",
    )
    sp.add_argument(
        "--default-budget", type=float, default=60.0, metavar="SECONDS",
        help="per-request wall-clock budget when the request sets none "
        "(default: 60s)",
    )
    sp.add_argument(
        "--max-budget", type=float, default=300.0, metavar="SECONDS",
        help="server-side clamp on request budgets (default: 300s)",
    )
    sp.add_argument(
        "--drain-timeout", type=float, default=60.0, metavar="SECONDS",
        help="max seconds SIGTERM waits for in-flight work (default: 60s)",
    )
    sp.add_argument(
        "--metrics-port", type=int, default=None, metavar="N",
        help="also serve Prometheus text metrics over HTTP on this port "
        "(0 = ephemeral; GET /metrics)",
    )
    sp.add_argument(
        "--slow-log", default=None, metavar="PATH",
        help="append requests slower than --slow-ms to this NDJSON file",
    )
    sp.add_argument(
        "--slow-ms", type=float, default=1000.0, metavar="MS",
        help="slow-request log latency threshold (default: 1000ms)",
    )
    sp.add_argument(
        "--gauge-interval", type=float, default=5.0, metavar="SECONDS",
        help="queue-depth/hit-rate gauge sampling period, 0 to disable "
        "(default: 5s)",
    )
    sp.add_argument(
        "--selftest", action="store_true",
        help="boot an in-process daemon, load it over the wire protocol, "
        "write BENCH_service.json and exit non-zero on any protocol, "
        "cell, verify or equivalence problem",
    )
    sp.add_argument(
        "--requests", type=int, default=240, metavar="N",
        help="selftest: total requests across the warm + replay phases "
        "(default: 240)",
    )
    sp.add_argument(
        "--concurrency", type=int, default=16, metavar="N",
        help="selftest: concurrent client connections (default: 16)",
    )
    sp.add_argument(
        "--budget", type=float, default=60.0, metavar="SECONDS",
        help="selftest: per-request budget (default: 60s)",
    )
    sp.add_argument(
        "--seed", type=int, default=0,
        help="selftest: replay-shuffle seed (default: 0)",
    )
    sp.add_argument(
        "--check-equivalence", action="store_true",
        help="selftest: re-run every distinct cell through the direct exec "
        "engine and fail on any result difference",
    )
    sp.add_argument(
        "--output-dir", default="benchmarks/output", metavar="DIR",
        help="selftest: where BENCH_service.json goes "
        "(default: benchmarks/output)",
    )
    sp.add_argument(
        "--history-dir", default=None, metavar="DIR",
        help="selftest: also append BENCH_service to this run-history store "
        "(e.g. benchmarks/history; default: off)",
    )
    args = sp.parse_args(argv)

    from .serve.service import ServeConfig

    try:
        config = ServeConfig(
            jobs=args.jobs,
            queue_limit=args.queue_limit,
            cache_dir=None if args.no_cache else args.cache_dir,
            lru_entries=args.lru_entries,
            lru_bytes=int(args.lru_mb * (1 << 20)),
            default_budget=args.default_budget,
            max_budget=args.max_budget,
            drain_timeout=args.drain_timeout,
            slow_log_path=args.slow_log,
            slow_ms=args.slow_ms,
            gauge_interval=args.gauge_interval,
        )
    except ValueError as exc:  # --jobs below 1
        sp.error(f"--jobs: {exc}")

    if args.selftest:
        from .serve.loadgen import (
            LoadgenOptions,
            format_summary,
            run_selftest,
        )

        options = LoadgenOptions(
            requests=args.requests,
            concurrency=args.concurrency,
            budget=args.budget,
            seed=args.seed,
            output_dir=args.output_dir,
            history_dir=args.history_dir,
        )
        report, path, problems = run_selftest(
            options,
            jobs=args.jobs,
            equivalence=args.check_equivalence,
            config=config,
            log=lambda line: print(line, file=sys.stderr, flush=True),
        )
        print(format_summary(report))
        print(f"wrote {path}")
        if problems:
            print("selftest FAILED:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print("selftest ok"
              + (" (daemon matches the direct engine)"
                 if args.check_equivalence else ""))
        return 0

    if args.port is None and args.unix is None:
        sp.error("daemon mode needs --port and/or --unix (or use --selftest)")
    from .serve.daemon import run_daemon

    return run_daemon(config, host=args.host, port=args.port, unix_path=args.unix,
                      metrics_port=args.metrics_port)


def _cache_main(argv) -> int:
    """``python -m repro cache``: disk-tier statistics and pruning."""
    from .exec.cache import DEFAULT_CACHE_DIR, ScheduleCache

    cp = argparse.ArgumentParser(
        prog="python -m repro cache",
        description="Inspect the content-addressed schedule result cache "
        "(entries, bytes, shard fill) and optionally prune it to a byte "
        "budget, oldest entries first.",
    )
    cp.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    cp.add_argument(
        "--prune", action="store_true",
        help="garbage-collect the cache down to --max-bytes",
    )
    cp.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="byte budget for --prune (also accepts --max-mb)",
    )
    cp.add_argument(
        "--max-mb", type=float, default=None, metavar="MB",
        help="byte budget for --prune, in MiB",
    )
    cp.add_argument(
        "--json", dest="json_out", action="store_true",
        help="print the stats as JSON",
    )
    args = cp.parse_args(argv)

    import json as _json

    cache = ScheduleCache(args.cache_dir)
    if args.prune:
        max_bytes = args.max_bytes
        if max_bytes is None and args.max_mb is not None:
            max_bytes = int(args.max_mb * (1 << 20))
        if max_bytes is None:
            cp.error("--prune needs --max-bytes N or --max-mb MB")
        before = cache.disk_stats()
        pruned = cache.prune(max_bytes)
        print(
            f"pruned {pruned['removed']} of {before['entries']} entries "
            f"({pruned['freed_bytes']} bytes freed, "
            f"{pruned['tmp_removed']} stale tmp files); "
            f"{pruned['kept']} entries / {pruned['kept_bytes']} bytes kept"
        )
        return 0
    stats = cache.disk_stats()
    if args.json_out:
        print(_json.dumps(stats, indent=1, sort_keys=True))
        return 0
    print(f"cache dir     {stats['dir']}")
    print(f"entries       {stats['entries']}")
    print(f"bytes         {stats['bytes']}")
    print(f"shards used   {stats['shards_used']} ({stats['shard_fill']:.2%} of 65536)")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Software Pipelining Showdown experiments.",
    )
    if argv[:1] == ["verify"]:
        return _verify_main(argv[1:], parser)
    if argv[:1] == ["bench"]:
        return _bench_main(argv[1:], sweep=False)
    if argv[:1] == ["sweep"]:
        return _bench_main(argv[1:], sweep=True)
    if argv[:1] == ["trace"]:
        return _trace_main(argv[1:])
    if argv[:1] == ["explain"]:
        return _explain_main(argv[1:])
    if argv[:1] == ["analyze"]:
        return _analyze_main(argv[1:])
    if argv[:1] == ["diff"]:
        from .obs.diffbench import main as diffbench_main

        return diffbench_main(argv[1:])
    if argv[:1] == ["trend"]:
        from .obs.trend import main as trend_main

        return trend_main(argv[1:])
    if argv[:1] == ["report"]:
        return _report_main(argv[1:])
    if argv[:1] == ["fuzz"]:
        return _fuzz_main(argv[1:])
    if argv[:1] == ["serve"]:
        return _serve_main(argv[1:])
    if argv[:1] == ["cache"]:
        return _cache_main(argv[1:])
    parser.add_argument(
        "experiments", nargs="*", help="experiment names (see --list); 'all' runs "
        "every one; 'verify <corpus>' runs the static verification sweep; "
        "'bench'/'sweep' time the corpus grid and emit BENCH json; "
        "'explain <corpus>' attributes II gaps; 'diff <old> <new>' compares "
        "BENCH runs; 'trend <name>' classifies run-history series; "
        "'report --html' writes the dashboard; 'fuzz' runs the "
        "differential fuzzer; 'serve' runs the scheduling daemon; 'cache' "
        "inspects/prunes the result cache",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument(
        "--corpus", action="store_true",
        help="print the workload corpus profiles (Livermore + SPEC92-like) and exit",
    )
    parser.add_argument(
        "--ilp-seconds", type=float, default=10.0,
        help="ILP budget per loop (paper: 180s; default: 10s)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="verify every pipelined loop while experiments run; exit non-zero "
        "on any ERROR diagnostic",
    )
    _add_exec_arguments(parser)
    parser.add_argument(
        "--bench-json", action="store_true",
        help="also write each experiment's cell measurements as "
        "benchmarks/output/BENCH_<name>.json",
    )
    args = parser.parse_args(argv)

    if args.corpus:
        from .eval.corpus import livermore_profile, spec92_profile

        print(livermore_profile().formatted())
        print()
        print(spec92_profile().formatted())
        return 0

    if args.list or not args.experiments:
        width = max(len(name) for name in EXPERIMENTS)
        for name, (_, blurb) in EXPERIMENTS.items():
            print(f"  {name.ljust(width)}  {blurb}")
        return 0

    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")
    if args.strict:
        from .verify import set_default_verify

        set_default_verify(True)
    config = ExperimentConfig(
        most_time_limit=args.ilp_seconds,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
    )
    for name in names:
        start = time.perf_counter()
        try:
            result = EXPERIMENTS[name][0](config)
        except Exception as exc:
            from .verify import VerificationError

            if args.strict and isinstance(exc, VerificationError):
                print(f"[{name}] verification failed:\n{exc}", file=sys.stderr)
                return 1
            raise
        print(result.formatted())
        if args.bench_json and result.cells:
            from .exec.bench import figure_report, write_bench_json

            path = write_bench_json(figure_report(result.name, result.cells))
            print(f"[{name}: wrote {path}]")
        print(f"\n[{name}: {time.perf_counter() - start:.1f}s]\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
