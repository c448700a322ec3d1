"""Command-line entry point: ``python -m repro <experiment> [...]``.

Regenerates the paper's tables and figures (and the extensions) without
writing any code.  ``python -m repro --list`` shows what is available.

Ten subcommands (``SUBCOMMANDS``; each takes ``--help``) sit beside it:

* ``bench [--quick] [<corpus>]`` — the one command that runs the (loop ×
  scheduler) grid, every cell verified and explained, into
  ``benchmarks/output/BENCH_*.json`` with the grid's seven-layer verdict
  (:mod:`repro.exec.verdict`); exits 1 on any error or violation;
  ``--trace`` adds the search-effort table and a validated Chrome trace;
* ``verify``, ``explain`` and ``analyze <corpus>`` — views of that grid:
  each runs ``bench <corpus> --quick`` through the result cache and prints
  from the written ``BENCH_sweep_<corpus>.json`` (a subset run's name
  carries its subset); ``verify`` exits 1 on the json's violations;
* ``diff <old> <new>`` / ``trend <name>`` — the regression gate over BENCH
  runs and the run-history store;
* ``report`` — the self-contained ``report.html`` dashboard;
* ``fuzz`` — coverage-guided differential fuzzing, minimized reproducers
  into ``tests/fuzz_corpus/``;
* ``serve`` — the scheduling daemon (cache hits answered at admission,
  misses solved on a persistent worker pool); ``--selftest`` replays the
  committed corpora through it into ``BENCH_service.json``;
* ``cache`` — disk-tier cache statistics and pruning.

Every command that runs pipeliners defaults ``--schedulers`` to the whole
scheduler registry (:mod:`repro.schedulers`; fuzz excepted) and reads each
scheduler's options from the registry's presets.  The flags several
commands share are defined once, in ``_SHARED``.  The experiment runner
and ``bench`` share the parallel cached engine: ``--jobs N``
fans cells out over worker processes, ``--cache-dir``/``--no-cache``
control the content-addressed result cache (an edited kernel, option, or
scheduler source invalidates exactly the affected cells).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from .exec.cache import DEFAULT_CACHE_DIR
from .obs.export import atomic_write_text
from .schedulers import REGISTRY

if TYPE_CHECKING:
    from .eval.experiments import ExperimentConfig, ExperimentResult


def _experiment(name: str) -> Callable[[ExperimentConfig], ExperimentResult]:
    """The experiment function ``name`` of :mod:`repro.eval.experiments`,
    imported when it runs: a command that runs no experiment (``serve``,
    ``--help``) loads none of them."""

    def run(config: ExperimentConfig) -> ExperimentResult:
        from .eval import experiments

        return getattr(experiments, name)(config)

    run.__name__ = name
    return run


#: Each experiment by CLI name: its function (imported when it runs) and
#: its one-line blurb.
EXPERIMENTS = {
    name: (_experiment(function), blurb)
    for name, function, blurb in (
        ("fig2", "fig2_pipelining_effectiveness", "SPEC92 fp: pipelining on vs off"),
        ("fig3", "fig3_priority_heuristics", "single priority heuristic vs all four"),
        ("fig4", "fig4_membank_effectiveness", "memory-bank heuristics on vs off"),
        ("fig5", "fig5_ilp_vs_heuristic", "ILP vs MIPSpro, with/without bank pairing"),
        ("fig6", "fig6_livermore", "Livermore kernels, short and long trip counts"),
        ("fig7", "fig7_static_quality", "registers and overhead, MIPSpro minus ILP"),
        ("sec47", "sec47_compile_speed", "compile-speed comparison"),
        ("scalability", "sec5_scalability", "largest schedulable loop per technique"),
        ("iiparity", "sec5_ii_parity", "how often the ILP finds a lower II"),
        ("ext-rau", "ext_rau_comparison", "extension: add Rau94 iterative modulo scheduling"),
        ("ext-overhead", "ext_overhead_objective", "extension: overhead-minimising ILP objective"),
    )
}


#: The registry's schedulers, as a ``--schedulers`` default.
ALL_SCHEDULERS = ",".join(REGISTRY)


def _scheduler_list(*extra: str) -> Callable[[str], Tuple[str, ...]]:
    """An argparse type: comma-separated registry names (or ``extra`` ones)."""
    known = (*REGISTRY, *extra)

    def parse(text: str) -> Tuple[str, ...]:
        names = tuple(name.strip() for name in text.split(",") if name.strip())
        unknown = [name for name in names if name not in known]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown schedulers: {', '.join(unknown)} (known: {', '.join(known)})"
            )
        return names

    return parse


#: One flag of a command's table: its option strings (space-separated; a
#: bare name is a positional) and its argparse keywords.
Row = Tuple[str, Dict[str, Any]]

#: The flags several commands share, by ``dest``.  A command names the ones
#: it takes, with its own defaults, in its :func:`_parse` call.
_SHARED: Dict[str, Row] = {
    "schedulers": ("--schedulers", dict(
        type=_scheduler_list(), metavar="NAMES",
        help="comma-separated schedulers to run (default: %(default)s)")),
    "jobs": ("--jobs", dict(
        type=int, metavar="N",
        help="worker processes to fan cells out over (default: %(default)s)")),
    "cache_dir": ("--cache-dir", dict(
        metavar="DIR", help="content-addressed result cache directory (default: %(default)s)")),
    "no_cache": ("--no-cache", dict(
        action="store_true", help="disable the result cache even if --cache-dir is set")),
    "seed": ("--seed", dict(type=int, help="random seed (default: %(default)s)")),
    "limit": ("--limit", dict(
        type=int, metavar="N", help="only the first N loops of each corpus")),
    "cell_timeout": ("--cell-timeout", dict(
        type=float, metavar="SECONDS", help="hard per-cell deadline (default: %(default)ss)")),
    "json_out": ("--json", dict(
        metavar="PATH", help="also write the results as JSON to this path ('-' for stdout)")),
    "history_dir": ("--history-dir", dict(
        metavar="DIR", help="run-history store (default: %(default)s)")),
}

#: bench's grid flags, with bench's defaults: every view of the grid
#: (verify, explain, analyze) takes the same ones, so a view names the
#: very cells ``repro bench`` would run.
_GRID: Dict[str, Any] = dict(
    schedulers=ALL_SCHEDULERS, limit=None, jobs=1, cache_dir=DEFAULT_CACHE_DIR, no_cache=False,
)

#: The corpus positional of the views.
_CORPUS = ("corpus", dict(
    nargs="?", default="livermore",
    help="livermore, spec92, recbound or all (default: %(default)s)"))


def _parse(
    command: str,
    description: str,
    argv: Sequence[str],
    rows: Sequence[Row] = (),
    extra_schedulers: Tuple[str, ...] = (),
    helps: Optional[Mapping[str, str]] = None,
    **shared: Any,
) -> Tuple[argparse.ArgumentParser, argparse.Namespace]:
    """Build ``python -m repro <command>`` from its flag table ``rows`` and
    the shared flags named in ``shared`` (with this command's defaults;
    ``helps`` rewords a shared flag, ``extra_schedulers`` widens
    ``--schedulers`` beyond the registry), then parse ``argv``."""
    parser = argparse.ArgumentParser(
        prog=f"python -m repro {command}".rstrip(), description=description
    )
    for names, keywords in rows:
        parser.add_argument(*names.split(), **keywords)
    for dest, default in shared.items():
        names, keywords = _SHARED[dest]
        keywords = {**keywords, "dest": dest, "default": default}
        if helps and dest in helps:
            keywords["help"] = helps[dest]
        if dest == "schedulers" and extra_schedulers:
            keywords["type"] = _scheduler_list(*extra_schedulers)
        parser.add_argument(names, **keywords)
    return parser, parser.parse_args(argv)


def _invalid(path, problems) -> bool:
    """Report validation problems with the file at ``path``; True if any."""
    if problems:
        print(f"{path} is invalid:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
    return bool(problems)


def _print_or_write(json_out: Optional[str], payload: str, text: str) -> None:
    """Print ``text`` and write the JSON ``payload`` to ``--json PATH``, or
    print only the payload for ``--json -``."""
    if json_out == "-":
        print(payload)
        return
    print(text)
    if json_out:
        path = pathlib.Path(json_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, payload + "\n")
        print(f"wrote {path}")


def _cache_line(report: Mapping[str, Any]) -> str:
    """A BENCH payload's cache accounting, in one phrase."""
    cache = report["cache"]
    if cache is None:
        return "cache disabled"
    return f"cache {cache['hits']} hits / {cache['misses']} misses ({cache['dir']})"


def _grid(parser: argparse.ArgumentParser, args: argparse.Namespace) -> Dict[str, Any]:
    """The view's grid: run ``repro bench <corpus> --quick`` with the grid
    flags (a warm cache answers every cell) and return the payload read
    back from the BENCH json it wrote (``BENCH_sweep_<corpus>.json``, its
    subset in the name under ``--schedulers`` or ``--limit``), so every
    number a view prints is that file's."""
    import json

    from .exec.bench import BenchOptions, run_sweep

    options = BenchOptions(
        quick=True,
        schedulers=args.schedulers,
        limit=args.limit,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
    )
    try:
        _, path = run_sweep(args.corpus, options, progress=None)
    except ValueError as exc:  # unknown corpus
        parser.error(str(exc))
    report = json.loads(path.read_text())
    print(f"grid: {path}, {report['totals']['cells']} cells; {_cache_line(report)}",
          file=sys.stderr)
    return report


def _cell_results(report: Mapping[str, Any]) -> list:
    """A BENCH payload's cells as results, in grid order."""
    from .exec.cells import CellResult

    return [CellResult.from_dict(cell) for cell in report["cells"]]


def _loop_name(key: str) -> str:
    """The loop name a corpus key ends in (``spec92:doduc/doduc_state`` →
    ``doduc_state``)."""
    return key.partition(":")[2].rpartition("/")[2]


def _explanations(cells: Sequence[Mapping[str, Any]]) -> list:
    """One explanation dict per BENCH cell; a crashed cell's dict names
    its loop and scheduler and carries the ``error``."""
    return [
        {"loop": _loop_name(cell["loop"]), "scheduler": cell["scheduler"],
         **(cell.get("explanation") or {"error": cell.get("error") or "no explanation"})}
        for cell in cells
    ]


def _verify_main(argv) -> int:
    """``python -m repro verify <corpus>``: every artifact's diagnostics."""
    vp, args = _parse(
        "verify",
        "Print the independent verifier's diagnostics on every artifact of "
        "the corpus grid and the grid's seven-layer verdict (exit 1 on any "
        "violation).",
        argv,
        [
            ("corpus", dict(nargs="?", default="all",
                            help="livermore, spec92, recbound or all (default: %(default)s)")),
            ("-v --verbose", dict(action="store_true",
                                  help="print every diagnostic, warnings included")),
        ],
        **_GRID,
    )
    from .exec.verdict import format_verify

    report = _grid(vp, args)
    print(format_verify(args.corpus, report, verbose=args.verbose))
    return 1 if report["totals"]["violations"] else 0


def _bench_main(argv) -> int:
    """``python -m repro bench [<corpus>]``: the timed grid."""
    from .exec.bench import DEFAULT_OUTPUT_DIR, BenchOptions, run_pipeline_bench, run_sweep

    bp, args = _parse(
        "bench",
        "Run every (loop × scheduler) cell of the corpus grid, verified and "
        "explained, and write the measurements and the grid's seven-layer "
        "verdict as a BENCH json (exit 1 on any cell error or violation).",
        argv,
        [
            ("corpus", dict(nargs="?", help="bench this one corpus (livermore, spec92, "
                            "recbound or all) into BENCH_sweep_<corpus>.json instead of "
                            "the standard corpora into BENCH_pipeline.json (a scheduler "
                            "subset or --limit adds itself to the name)")),
            ("--quick", dict(action="store_true", help="CI smoke configuration: "
                             "livermore + recbound, tighter solver budget")),
            ("--output-dir", dict(default=str(DEFAULT_OUTPUT_DIR), metavar="DIR",
                                  help="where BENCH_*.json goes (default: %(default)s)")),
            ("--trace", dict(action="store_true", help="run cells live (past the cache) "
                             "under the repro.obs recorder: print the per-loop "
                             "search-effort table, write JSONL spools and a merged, "
                             "validated Chrome trace into --trace-dir")),
            ("--trace-dir", dict(metavar="DIR", help="trace output directory (default: "
                                 "<output-dir>/trace; implies --trace)")),
        ],
        extra_schedulers=("baseline",),
        helps={"cell_timeout": "hard per-cell deadline (default: 120s, 60s with --quick)",
               "history_dir": "also file this run in this run-history store "
               "(e.g. benchmarks/history; default: off)"},
        **_GRID, cell_timeout=None, seed=0, history_dir=None,
    )
    trace = args.trace or args.trace_dir is not None
    trace_dir = args.trace_dir
    if trace and trace_dir is None:
        trace_dir = str(pathlib.Path(args.output_dir) / "trace")
    options = BenchOptions(
        quick=args.quick,
        schedulers=args.schedulers,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        seed=args.seed,
        limit=args.limit,
        output_dir=args.output_dir,
        trace=trace,
        trace_dir=trace_dir,
        history_dir=None if args.history_dir is None else pathlib.Path(args.history_dir),
    )
    if args.cell_timeout is not None:
        options.cell_timeout = args.cell_timeout
    try:
        if args.corpus is not None:
            report, path = run_sweep(args.corpus, options)
        else:
            report, path = run_pipeline_bench(options)
    except ValueError as exc:  # unknown corpus
        bp.error(str(exc))
    from .exec.verdict import format_violation

    totals = report["totals"]
    failed = bool(totals["errors"] or totals["violations"])
    if trace:
        failed = _trace_failed(report) or failed
    print(
        f"\n{totals['cells']} cells in {report['wall_seconds']:.1f}s "
        f"(jobs={report['jobs']}): {totals['timeouts']} timeouts, "
        f"{totals['fallbacks']} fallbacks, {totals['errors']} errors, "
        f"{len(totals['violations'])} violations; {_cache_line(report)}"
    )
    for violation in totals["violations"]:
        print(f"  VIOLATION {format_violation(violation)}")
    print(f"wrote {path}")
    return 1 if failed else 0


def _trace_failed(report: Mapping[str, Any]) -> bool:
    """``bench --trace``'s view: print the §4.7 search-effort table and
    validate the merged Chrome trace; True when it is missing or invalid
    or no cell was traced."""
    from .obs.export import validate_chrome_trace_file
    from .obs.report import format_effort_table

    print("\n" + format_effort_table(_cell_results(report)))
    merged = report.get("trace")
    problems = ["no trace files were written"] if merged is None else (
        validate_chrome_trace_file(merged))
    traced = sum(1 for cell in report["cells"] if cell["obs"])
    if not traced:
        problems.append("no cell produced obs counters")
    if _invalid(merged or "--trace", problems):
        return True
    print(f"\nwrote {merged}, valid; {traced}/{len(report['cells'])} cells traced "
          "(load it in chrome://tracing or https://ui.perfetto.dev)")
    return False


def _explain_main(argv) -> int:
    """``python -m repro explain <corpus>``: II-gap attribution.

    Prints the binding-constraint class every cell of the corpus grid
    carries: the critical recurrence circuit or bottleneck resource when
    II == MinII, and, when II > MinII, a certificate citation or a read of
    the trail the driver wrote below the achieved II (register pressure,
    search budget or exhaustion, or every lower II proven infeasible).
    Each explanation was computed in its cell from that cell's own run.
    """
    ep, args = _parse(
        "explain",
        "Attribute every (loop × scheduler) cell's achieved II to its binding "
        "constraint.",
        argv,
        [_CORPUS],
        **_GRID, json_out=None,
    )
    from .obs.explain import explanations_to_json, format_explanations

    explanations = _explanations(_grid(ep, args)["cells"])
    _print_or_write(
        args.json_out, explanations_to_json(explanations), format_explanations(explanations)
    )
    crashed = [f"{e['loop']} × {e['scheduler']}" for e in explanations if "binding" not in e]
    if crashed:
        print(f"{len(crashed)} cell(s) errored: {', '.join(crashed)}", file=sys.stderr)
    return 1 if crashed else 0


def _analyze_main(argv) -> int:
    """``python -m repro analyze <corpus>``: certified II lower bounds.

    Prints, per loop, MinII → the refined certified bound (schedulability
    and allocatability) → the II each pipeliner achieved in the grid.  The
    bounds are derived here, in the view; a cell whose own recorded bound
    differs from them fails its loop's row.  ``--check`` also validates
    every shipped certificate with the independent checker in
    ``repro.verify`` and cross-checks each achieved or proved-optimal II
    against the certified bounds, exiting non-zero on any failure.
    """
    import json as _json

    ap, args = _parse(
        "analyze",
        "Derive certified refined II lower bounds for every loop of a corpus "
        "and compare them with the IIs its grid achieved.",
        argv,
        [
            _CORPUS,
            ("--check", dict(action="store_true", help="validate every certificate with "
                             "the independent checker and cross-check achieved IIs "
                             "against the bounds (exit 1 on failure)")),
            ("-v --verbose", dict(action="store_true", help="print the table legend")),
        ],
        **_GRID, json_out=None,
    )
    from .analyze.api import analyze_corpus

    grid = _grid(ap, args)
    report = analyze_corpus(
        args.corpus, _cell_results(grid), check=args.check, limit=args.limit,
        violations=grid["totals"]["violations"],
    )
    payload = _json.dumps(
        [e.to_dict() for e in report.entries], indent=1, sort_keys=True
    )
    _print_or_write(args.json_out, payload, report.formatted(verbose=args.verbose))
    return 0 if report.ok else 1


def _report_main(argv) -> int:
    """``python -m repro report``: the one-file dashboard."""
    from .obs.diffbench import load_bench
    from .obs.html import validate_report_file, write_report

    rp, args = _parse(
        "report",
        "Assemble figure tables, per-loop II explanations and the bench diff "
        "into one self-contained report.html (inline CSS/JS, opens offline).",
        argv,
        [
            ("--output", dict(default="benchmarks/output/report.html", metavar="PATH",
                              help="where report.html goes (default: %(default)s)")),
            ("--experiments", dict(default="fig2,fig3,fig4,fig5,fig6,fig7",
                                   help="comma-separated experiment names for the "
                                   "figure-table panel, or 'none' (default: fig2..fig7)")),
            ("--bench", dict(default="benchmarks/output", metavar="PATH", help="BENCH "
                             "json (file or directory) for the bench and II-explanation "
                             "panels; skipped when absent (default: %(default)s)")),
            ("--baseline", dict(default="benchmarks/baseline", metavar="PATH",
                                help="baseline BENCH json for the diff panel; skipped "
                                "when absent (default: %(default)s)")),
            ("--history-last", dict(type=int, default=20, metavar="N", help="trend panel "
                                    "looks at the last N stored runs (default: %(default)s)")),
            ("--check", dict(action="store_true", help="validate the written report "
                             "(well-formedness, panel presence); exit non-zero on "
                             "problems")),
        ],
        helps={"history_dir": "run-history store for the trend panel; renders a "
               "placeholder when it holds fewer than two runs (default: %(default)s)"},
        history_dir="benchmarks/history",
    )
    names = [] if args.experiments == "none" else [
        n.strip() for n in args.experiments.split(",") if n.strip()
    ]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        rp.error(f"unknown experiments: {', '.join(unknown)}")

    from .eval.experiments import ExperimentConfig

    tables, charts = [], []
    for name in names:
        print(f"running {name} ...", flush=True)
        result = EXPERIMENTS[name][0](ExperimentConfig())
        tables.append(result.table)
        if result.chart:
            charts.append(result.chart)

    bench = diff = None
    explanations: list = []
    try:
        bench = load_bench(args.bench)
    except (FileNotFoundError, OSError):
        print(f"no bench json under {args.bench}; bench and explanation panels skipped")
    if bench is not None:
        from .obs.diffbench import diff_reports

        explanations = _explanations(
            [cell for cell in bench["cells"] if cell.get("explanation") or cell.get("error")]
        )
        try:
            diff = diff_reports(load_bench(args.baseline), bench)
        except (FileNotFoundError, OSError):
            print(f"no baseline under {args.baseline}; diff panel skipped")

    from .obs.trend import history_panel_data

    history = history_panel_data(
        pathlib.Path(args.history_dir), last=args.history_last
    )

    meta = {
        "bench": bench["name"] if bench is not None else "none",
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
        if _invalid(path, validate_report_file(path, required)):
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
    from .fuzz.corpus import DEFAULT_CORPUS_DIR
    from .fuzz.engine import FuzzConfig, run_fuzz
    from .fuzz.inject import INJECTIONS

    fp, args = _parse(
        "fuzz",
        "Generate loops by mutation and crossover, run them through the chosen "
        "pipeliners under a layered differential oracle (crash / independent "
        "verify / functional sim / MinII / proved optimality), and minimize any "
        "violation into a reproducer in the regression corpus.",
        argv,
        [
            ("--seconds", dict(type=float, default=60.0,
                               help="fuzzing wall-clock budget (default: %(default)s)")),
            ("--oracle", dict(choices=("backend-agreement",), help="enable an extra "
                              "oracle layer; 'backend-agreement' adds the portfolio "
                              "scheduler (cross-check on) so every generated loop also "
                              "races the CP and ILP backends against each other")),
            ("--inject", dict(choices=sorted(INJECTIONS), help="seed a known fault into "
                              "the pipeline; the session then verifies the oracle "
                              "catches it (exit 1 if it does not)")),
            ("--max-ops", dict(type=int, default=16, help="corpus-admission cap on "
                               "generated loop size (default: %(default)s)")),
            ("--max-loops", dict(type=int, metavar="N", help="stop after N generated "
                                 "loops even if time remains")),
            ("--corpus-dir", dict(default=DEFAULT_CORPUS_DIR, metavar="DIR",
                                  help="regression corpus directory (default: "
                                  "%(default)s)")),
            ("--no-write", dict(action="store_true", help="do not write minimized "
                                "reproducers into the corpus")),
            ("--findings-dir", dict(metavar="DIR", help="also copy new reproducers "
                                    "here (CI artifact upload)")),
        ],
        jobs=1, seed=0, schedulers=",".join(FuzzConfig.schedulers), cell_timeout=20.0,
    )
    schedulers = args.schedulers
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
    sp, args = _parse(
        "serve",
        "Run the scheduling daemon: newline-delimited JSON requests over TCP "
        "and/or a unix socket; cache hits are answered at admission from a "
        "two-tier (memory LRU + disk) result cache, misses are solved once each "
        "on a persistent worker pool. --selftest instead boots an in-process "
        "daemon on a temporary unix socket, replays the committed corpora "
        "through the wire protocol at the requested concurrency and writes "
        "BENCH_service.json.",
        argv,
        [
            ("--host", dict(default="127.0.0.1",
                            help="TCP bind address (default: %(default)s)")),
            ("--port", dict(type=int, metavar="N", help="TCP port to listen on "
                            "(0 = ephemeral; omit for no TCP listener)")),
            ("--unix", dict(metavar="PATH", help="unix socket path to listen on "
                            "(daemon needs --port and/or --unix)")),
            ("--queue-limit", dict(type=int, default=64, metavar="N", help="max "
                                   "distinct solves outstanding; a new cache miss "
                                   "beyond it is shed with an 'overloaded' + "
                                   "retry_after response, while cache hits and "
                                   "requests for a key already being solved are "
                                   "always served (default: %(default)s)")),
            ("--lru-entries", dict(type=int, default=1024, metavar="N", help="in-process "
                                   "LRU entry budget (default: %(default)s)")),
            ("--lru-mb", dict(type=float, default=64.0, metavar="MB", help="in-process "
                              "LRU byte budget in MiB (default: %(default)s)")),
            ("--default-budget", dict(type=float, default=60.0, metavar="SECONDS",
                                      help="per-request wall-clock budget when the "
                                      "request sets none (default: %(default)ss)")),
            ("--max-budget", dict(type=float, default=300.0, metavar="SECONDS",
                                  help="server-side clamp on request budgets "
                                  "(default: %(default)ss)")),
            ("--drain-timeout", dict(type=float, default=60.0, metavar="SECONDS",
                                     help="max seconds SIGTERM waits for in-flight "
                                     "work (default: %(default)ss)")),
            ("--metrics-port", dict(type=int, metavar="N", help="also serve Prometheus "
                                    "text metrics over HTTP on this port (0 = "
                                    "ephemeral; GET /metrics)")),
            ("--slow-log", dict(metavar="PATH", help="append requests slower than "
                                "--slow-ms to this NDJSON file")),
            ("--slow-ms", dict(type=float, default=1000.0, metavar="MS", help="slow-"
                               "request log latency threshold (default: %(default)sms)")),
            ("--gauge-interval", dict(type=float, default=5.0, metavar="SECONDS",
                                      help="queue-depth/hit-rate gauge sampling period, "
                                      "0 to disable (default: %(default)ss)")),
            ("--selftest", dict(action="store_true", help="boot an in-process daemon, "
                                "load it over the wire protocol, write "
                                "BENCH_service.json and exit non-zero on any protocol, "
                                "cell, verify or equivalence problem")),
            ("--requests", dict(type=int, default=240, metavar="N", help="selftest: "
                                "total requests across the warm + replay phases "
                                "(default: %(default)s)")),
            ("--concurrency", dict(type=int, default=16, metavar="N", help="selftest: "
                                   "concurrent client connections (default: %(default)s)")),
            ("--budget", dict(type=float, default=60.0, metavar="SECONDS", help="selftest: "
                              "per-request budget (default: %(default)ss)")),
            ("--check-equivalence", dict(action="store_true", help="selftest: re-run "
                                         "every distinct cell through the direct exec "
                                         "engine and fail on any result difference")),
            ("--output-dir", dict(default="benchmarks/output", metavar="DIR",
                                  help="selftest: where BENCH_service.json goes "
                                  "(default: %(default)s)")),
        ],
        helps={
            "jobs": "persistent worker processes, at least 1; each runs its cells "
            "under a SIGALRM deadline with a kill-and-respawn backstop (default: "
            "%(default)s)",
            "cache_dir": "disk tier of the result cache (default: %(default)s)",
            "no_cache": "run memory-only (no disk cache tier)",
            "seed": "selftest: replay-shuffle seed (default: %(default)s)",
            "history_dir": "selftest: also append BENCH_service to this run-history "
            "store (e.g. benchmarks/history; default: off)",
        },
        jobs=2, cache_dir=DEFAULT_CACHE_DIR, no_cache=False, seed=0, history_dir=None,
    )
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
        from .serve.loadgen import LoadgenOptions, format_summary, run_selftest

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
    import json as _json

    from .exec.cache import ScheduleCache

    cp, args = _parse(
        "cache",
        "Inspect the content-addressed schedule result cache (entries, bytes, "
        "shard fill) and optionally prune it to a byte budget, oldest entries "
        "first.",
        argv,
        [
            ("--prune", dict(action="store_true",
                             help="garbage-collect the cache down to --max-bytes")),
            ("--max-bytes", dict(type=int, metavar="N", help="byte budget for --prune")),
            ("--json", dict(dest="json_out", action="store_true",
                            help="print the stats as JSON")),
        ],
        cache_dir=DEFAULT_CACHE_DIR,
    )
    cache = ScheduleCache(args.cache_dir)
    if args.prune:
        if args.max_bytes is None:
            cp.error("--prune needs --max-bytes N")
        before = cache.disk_stats()
        pruned = cache.prune(args.max_bytes)
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


def _diff_main(argv) -> int:
    """``python -m repro diff <old> <new>``: the attributed regression gate."""
    import json as _json

    from .obs.diffbench import diff_reports, load_bench

    _, args = _parse(
        "diff",
        "Attributed diff of two BENCH_*.json runs",
        argv,
        [
            ("old", dict(help="baseline bench json (file or directory)")),
            ("new", dict(help="fresh bench json (file or directory)")),
            ("--name", dict(default="pipeline", help="which BENCH_<name>.json to resolve "
                            "when old/new are directories (default: %(default)s; e.g. "
                            "'service')")),
            ("--strict", dict(action="store_true",
                              help="exit 1 on regressions (default: warn only)")),
            ("--trend", dict(action="store_true", help="judge timings over the stored run "
                             "history plus the fresh run instead of the pair: a "
                             "timing/latency step change starting at this run is a "
                             "regression")),
            ("-v --verbose", dict(action="store_true",
                                  help="list every aligned cell, changed or not")),
        ],
        helps={
            "history_dir": "run-history root for --trend (default: benchmarks/history)",
            "json_out": "write the full diff as JSON to this path ('-' for stdout)",
        },
        history_dir=None, json_out=None,
    )
    new = load_bench(args.new, args.name)
    history = None
    if args.trend:
        from .obs.trend import trend_report

        history = trend_report(
            args.name, args.history_dir or "benchmarks/history", fresh=new
        )
    diff = diff_reports(load_bench(args.old, args.name), new, history)
    _print_or_write(
        args.json_out,
        _json.dumps(diff.to_dict(), indent=1, sort_keys=True),
        diff.formatted(verbose=args.verbose),
    )
    if diff.regressions and args.strict:
        return 1
    if diff.regressions:
        print(
            f"({len(diff.regressions)} regressions; warn-only, pass --strict to fail)",
            file=sys.stderr if args.json_out == "-" else sys.stdout,
        )
    return 0


def _trend_main(argv) -> int:
    """``python -m repro trend <name>``: trend verdicts over the run history."""
    import json as _json

    from .obs.trend import trend_report

    _, args = _parse(
        "trend",
        "Classify every metric series of a stored run history as stable, noisy, "
        "drift or step_change (with the changepoint attributed to a commit range).",
        argv,
        [
            ("name", dict(nargs="?", default="pipeline", help="history series to judge: "
                          "pipeline, service, micro, sweep_<corpus>, ... (default: "
                          "%(default)s)")),
            ("--last", dict(type=int, default=20, metavar="N", help="judge only the most "
                            "recent N stored runs (default: %(default)s)")),
            ("--check", dict(action="store_true", help="exit 1 when any series regressed "
                             "(timings/latency up, II up, hit rate down)")),
            ("-v --verbose", dict(action="store_true",
                                  help="list every series, stable ones included")),
        ],
        helps={"json_out": "write the full report as JSON ('-' for stdout)"},
        history_dir="benchmarks/history", json_out=None,
    )
    report = trend_report(args.name, history_dir=args.history_dir, last=args.last)
    _print_or_write(
        args.json_out,
        _json.dumps(report.to_dict(), indent=1, sort_keys=True),
        report.formatted(verbose=args.verbose),
    )
    if not report.runs:
        print(f"no stored runs for {args.name!r} under {args.history_dir}", file=sys.stderr)
        return 0
    return 1 if args.check and not report.ok else 0


#: Every subcommand beside the experiment runner, by name.
SUBCOMMANDS: Dict[str, Callable[[Any], int]] = {
    "verify": _verify_main,
    "bench": _bench_main,
    "explain": _explain_main,
    "analyze": _analyze_main,
    "diff": _diff_main,
    "trend": _trend_main,
    "report": _report_main,
    "fuzz": _fuzz_main,
    "serve": _serve_main,
    "cache": _cache_main,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = SUBCOMMANDS.get(argv[0]) if argv else None
    if command is not None:
        return command(argv[1:])
    parser, args = _parse(
        "",
        "Regenerate the Software Pipelining Showdown experiments.",
        argv,
        [
            ("experiments", dict(nargs="*", help="experiment names (see --list); 'all' "
                                 "runs every one; or one of the subcommands "
                                 + ", ".join(SUBCOMMANDS) + " (each takes --help)")),
            ("--list", dict(action="store_true", help="list available experiments")),
            ("--corpus", dict(action="store_true", help="print the workload corpus "
                              "profiles (Livermore + SPEC92-like) and exit")),
            ("--strict", dict(action="store_true", help="run every experiment cell "
                              "with the exec oracle (independent verification and "
                              "functional simulation); exit 1 naming each cell "
                              "the verdict's per-cell layers find wrong")),
            ("--bench-json", dict(action="store_true", help="also write each "
                                  "experiment's cell measurements as "
                                  "benchmarks/output/BENCH_<name>.json")),
            ("--ilp-seconds", dict(type=float, default=10.0, metavar="SECONDS",
                                   help="ILP budget per loop (paper: 180s; default: "
                                   "%(default)ss)")),
        ],
        jobs=1, cache_dir=None, no_cache=False,
    )

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
    from .eval.experiments import ExperimentConfig

    config = ExperimentConfig(
        most_time_limit=args.ilp_seconds,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        strict=args.strict,
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
