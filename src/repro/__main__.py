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
  each reads the ``BENCH_sweep_<corpus>.json`` that ``bench <corpus>
  --quick`` wrote (``--bench`` names another file or directory), runs no
  cell, and exits 2 naming that command when the json is missing;
  ``verify`` exits 1 on the json's violations;
* ``diff <old> <new>`` / ``trend <name>`` — the regression gate over BENCH
  runs and the run-history store;
* ``report`` — the self-contained ``report.html`` dashboard;
* ``fuzz`` — coverage-guided differential fuzzing, minimized reproducers
  into ``tests/fuzz_corpus/``;
* ``serve`` — the scheduling daemon (cache hits answered at admission,
  misses solved on a persistent worker pool); ``--selftest`` replays the
  committed corpora through it into ``BENCH_service.json``;
* ``cache`` — disk-tier cache statistics and pruning.

This module holds only the command contracts and dispatches to them.
Each command (``SUBCOMMANDS``, and ``RUNNER`` for the experiments) is a
:class:`Command`: its flag rows, the config classes those rows fill by
field name, and the function beside its subsystem that runs from them.  A
row that fills a field takes that field's default, so every default is
decided once, on its config class; the other rows are the command's
switches (positionals, modes, the daemon's sockets) and reach its
function as keywords.  The flags several commands share are defined once,
in ``_SHARED``.  Every command that runs pipeliners defaults
``--schedulers`` to the whole scheduler registry (:mod:`repro.schedulers`;
fuzz excepted) and reads each scheduler's options from the registry's
presets.  Config classes and functions are named by path and imported
when their command parses, so ``import repro.__main__`` loads none of
them and a command loads only its own (``serve`` no experiment, no load
generator and no bench reporter).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

from .exec.cache import DEFAULT_CACHE_DIR
from .obs import export
from .schedulers import REGISTRY


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
#: bare name is a positional) and its argparse keywords.  A callable
#: ``default``, ``help`` or ``choices`` is called when the command parses.
Row = Tuple[str, Dict[str, Any]]

#: The flags several commands share, by ``dest``.  A command takes one with
#: :func:`_shared`, which may reword it.
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
    "bench": ("--bench", dict(
        default=lambda: str(export.DEFAULT_OUTPUT_DIR), metavar="PATH",
        help="the grid's BENCH json: a file, or a directory holding "
        "BENCH_sweep_<corpus>.json (default: %(default)s)")),
}


def _shared(dest: str, **overrides: Any) -> Row:
    """The shared flag ``dest``, with this command's ``overrides``."""
    names, keywords = _SHARED[dest]
    return names, {**keywords, "dest": dest, **overrides}


def _load(path: str) -> Any:
    """The object a ``module:name`` path under ``repro`` names."""
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(f"repro.{module}"), name)


def _corpora() -> str:
    """The grid's corpora, and ``all``, as one phrase."""
    return _load("obs.views:corpora")()


def _history_dir() -> str:
    """The run-history store's default, as a flag shows it."""
    return str(_load("obs.history:DEFAULT_HISTORY_DIR"))


def _corpus_row(default: str) -> Row:
    """The corpus positional of the views."""
    return ("corpus", dict(nargs="?", default=default,
                           help=lambda: f"{_corpora()} (default: %(default)s)"))


class Command(NamedTuple):
    """One command's contract: its ``--help`` description, its flag rows,
    the ``module:name`` of the function that runs it, and of each config
    class its rows fill (the function takes one instance of each, then the
    other rows' values as keywords, and returns the exit status)."""

    description: str
    rows: Sequence[Row]
    run: str
    configs: Tuple[str, ...] = ()


#: Every subcommand beside the experiment runner, by name.
SUBCOMMANDS: Dict[str, Command] = {
    "verify": Command(
        "Print the independent verifier's diagnostics on every artifact of "
        "the corpus grid and the grid's seven-layer verdict (exit 1 on any "
        "violation).",
        [
            _corpus_row("all"),
            ("-v --verbose", dict(action="store_true",
                                  help="print every diagnostic, warnings included")),
            _shared("bench"),
        ],
        "obs.views:verify_main",
    ),
    "bench": Command(
        "Run every (loop × scheduler) cell of the corpus grid, verified and "
        "explained, and write the measurements and the grid's seven-layer "
        "verdict as a BENCH json (exit 1 on any cell error or violation).",
        [
            ("corpus", dict(nargs="?", help=lambda: f"bench this one corpus ({_corpora()}) "
                            "into BENCH_sweep_<corpus>.json instead of "
                            "the standard corpora into BENCH_pipeline.json (a scheduler "
                            "subset or --limit adds itself to the name)")),
            ("--quick", dict(action="store_true", help="CI smoke configuration: "
                             "livermore + recbound, tighter solver budget")),
            ("--output-dir", dict(metavar="DIR",
                                  help="where BENCH_*.json goes (default: %(default)s)")),
            ("--trace", dict(action="store_true", help="run cells live (past the cache) "
                             "under the repro.obs recorder: print the per-loop "
                             "search-effort table, write JSONL spools and a merged, "
                             "validated Chrome trace into --trace-dir")),
            ("--trace-dir", dict(metavar="DIR", help="trace output directory (default: "
                                 "<output-dir>/trace; implies --trace)")),
            _shared("schedulers", type=_scheduler_list("baseline")),
            _shared("limit"),
            _shared("jobs"),
            _shared("cache_dir"),
            _shared("no_cache"),
            _shared("cell_timeout",
                    help="hard per-cell deadline (default: 120s, 60s with --quick)"),
            _shared("seed"),
            _shared("history_dir", help="also file this run in this run-history store "
                    "(e.g. benchmarks/history; default: off)"),
        ],
        "exec.bench:bench_main",
        ("exec.bench:BenchOptions",),
    ),
    "explain": Command(
        "Attribute every (loop × scheduler) cell's achieved II to its binding "
        "constraint.",
        [_corpus_row("livermore"), _shared("bench"), _shared("json_out")],
        "obs.views:explain_main",
    ),
    "analyze": Command(
        "Derive certified refined II lower bounds for every loop of a corpus "
        "and compare them with the IIs its grid achieved.",
        [
            _corpus_row("livermore"),
            ("--check", dict(action="store_true", help="validate every certificate with "
                             "the independent checker and cross-check achieved IIs "
                             "against the bounds (exit 1 on failure)")),
            ("-v --verbose", dict(action="store_true", help="print the table legend")),
            _shared("bench"),
            _shared("json_out"),
        ],
        "obs.views:analyze_main",
    ),
    "diff": Command(
        "Attributed diff of two BENCH_*.json runs",
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
            _shared("history_dir",
                    help="run-history root for --trend (default: benchmarks/history)"),
            _shared("json_out", help="write the full diff as JSON to this path ('-' for stdout)"),
        ],
        "obs.diffbench:diff_main",
    ),
    "trend": Command(
        "Classify every metric series of a stored run history as stable, noisy, "
        "drift or step_change (with the changepoint attributed to a commit range).",
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
            _shared("history_dir", default=_history_dir),
            _shared("json_out", help="write the full report as JSON ('-' for stdout)"),
        ],
        "obs.trend:trend_main",
    ),
    "report": Command(
        "Assemble figure tables, per-loop II explanations and the bench diff "
        "into one self-contained report.html (inline CSS/JS, opens offline).",
        [
            ("--output", dict(default=lambda: str(export.DEFAULT_OUTPUT_DIR / "report.html"),
                              metavar="PATH", help="where report.html goes (default: "
                              "%(default)s)")),
            ("--experiments", dict(default="fig2,fig3,fig4,fig5,fig6,fig7",
                                   help="comma-separated experiment names for the "
                                   "figure-table panel, or 'none' (default: fig2..fig7)")),
            ("--baseline", dict(default="benchmarks/baseline", metavar="PATH",
                                help="baseline BENCH json for the diff panel; skipped "
                                "when absent (default: %(default)s)")),
            ("--history-last", dict(type=int, default=20, metavar="N", help="trend panel "
                                    "looks at the last N stored runs (default: %(default)s)")),
            ("--check", dict(action="store_true", help="validate the written report "
                             "(well-formedness, panel presence); exit non-zero on "
                             "problems")),
            _shared("history_dir", default=_history_dir, help="run-history store for the "
                    "trend panel; renders a placeholder when it holds fewer than two runs "
                    "(default: %(default)s)"),
            _shared("bench", help="BENCH json (file or directory) for the bench and "
                    "II-explanation panels; skipped when absent (default: %(default)s)"),
        ],
        "obs.html:report_main",
    ),
    "fuzz": Command(
        "Generate loops by mutation and crossover, run them through the chosen "
        "pipeliners under a layered differential oracle (crash / independent "
        "verify / functional sim / MinII / proved optimality), and minimize any "
        "violation into a reproducer in the regression corpus.",
        [
            ("--seconds", dict(type=float,
                               help="fuzzing wall-clock budget (default: %(default)s)")),
            ("--oracle", dict(choices=("backend-agreement",), help="enable an extra "
                              "oracle layer; 'backend-agreement' adds the portfolio "
                              "scheduler (cross-check on) so every generated loop also "
                              "races the CP and ILP backends against each other")),
            ("--inject", dict(choices=lambda: sorted(_load("fuzz.inject:INJECTIONS")),
                              help="seed a known fault into "
                              "the pipeline; the session then verifies the oracle "
                              "catches it (exit 1 if it does not)")),
            ("--max-ops", dict(type=int, help="corpus-admission cap on "
                               "generated loop size (default: %(default)s)")),
            ("--max-loops", dict(type=int, metavar="N", help="stop after N generated "
                                 "loops even if time remains")),
            ("--corpus-dir", dict(metavar="DIR", help="regression corpus directory "
                                  "(default: %(default)s)")),
            ("--no-write", dict(dest="write", action="store_false", help="do not write "
                                "minimized reproducers into the corpus")),
            ("--findings-dir", dict(metavar="DIR", help="also copy new reproducers "
                                    "here (CI artifact upload)")),
            _shared("jobs"),
            _shared("seed"),
            _shared("schedulers"),
            _shared("cell_timeout"),
        ],
        "fuzz.engine:fuzz_main",
        ("fuzz.engine:FuzzConfig",),
    ),
    "serve": Command(
        "Run the scheduling daemon: newline-delimited JSON requests over TCP "
        "and/or a unix socket; cache hits are answered at admission from a "
        "two-tier (memory LRU + disk) result cache, misses are solved once each "
        "on a persistent worker pool. --selftest instead boots an in-process "
        "daemon on a temporary unix socket, replays the committed corpora "
        "through the wire protocol at the requested concurrency and writes "
        "BENCH_service.json.",
        [
            ("--host", dict(default="127.0.0.1",
                            help="TCP bind address (default: %(default)s)")),
            ("--port", dict(type=int, metavar="N", help="TCP port to listen on "
                            "(0 = ephemeral; omit for no TCP listener)")),
            ("--unix", dict(metavar="PATH", help="unix socket path to listen on "
                            "(daemon needs --port and/or --unix)")),
            ("--queue-limit", dict(type=int, metavar="N", help="max "
                                   "distinct solves outstanding; a new cache miss "
                                   "beyond it is shed with an 'overloaded' + "
                                   "retry_after response, while cache hits and "
                                   "requests for a key already being solved are "
                                   "always served (default: %(default)s)")),
            ("--lru-entries", dict(type=int, metavar="N", help="in-process "
                                   "LRU entry budget (default: %(default)s)")),
            ("--lru-mb", dict(type=float, metavar="MB", help="in-process "
                              "LRU byte budget in MiB (default: %(default)s)")),
            ("--default-budget", dict(type=float, metavar="SECONDS",
                                      help="per-request wall-clock budget when the "
                                      "request sets none (default: %(default)ss)")),
            ("--max-budget", dict(type=float, metavar="SECONDS",
                                  help="server-side clamp on request budgets "
                                  "(default: %(default)ss)")),
            ("--drain-timeout", dict(type=float, metavar="SECONDS",
                                     help="max seconds SIGTERM waits for in-flight "
                                     "work (default: %(default)ss)")),
            ("--metrics-port", dict(type=int, metavar="N", help="also serve Prometheus "
                                    "text metrics over HTTP on this port (0 = "
                                    "ephemeral; GET /metrics)")),
            ("--slow-log", dict(dest="slow_log_path", metavar="PATH", help="append "
                                "requests slower than --slow-ms to this NDJSON file")),
            ("--slow-ms", dict(type=float, metavar="MS", help="slow-"
                               "request log latency threshold (default: %(default)sms)")),
            ("--gauge-interval", dict(type=float, metavar="SECONDS",
                                      help="queue-depth/hit-rate gauge sampling period, "
                                      "0 to disable (default: %(default)ss)")),
            ("--selftest", dict(action="store_true", help="boot an in-process daemon, "
                                "load it over the wire protocol, write "
                                "BENCH_service.json and exit non-zero on any protocol, "
                                "cell, verify or equivalence problem")),
            ("--requests", dict(type=int, metavar="N", help="selftest: "
                                "total requests across the warm + replay phases "
                                "(default: %(default)s)")),
            ("--concurrency", dict(type=int, metavar="N", help="selftest: "
                                   "concurrent client connections (default: %(default)s)")),
            ("--budget", dict(type=float, metavar="SECONDS", help="selftest: "
                              "per-request budget (default: %(default)ss)")),
            ("--check-equivalence", dict(action="store_true", help="selftest: re-run "
                                         "every distinct cell through the direct exec "
                                         "engine and fail on any result difference")),
            ("--output-dir", dict(metavar="DIR", help="selftest: where BENCH_service.json "
                                  "goes (default: %(default)s)")),
            _shared("jobs", help="persistent worker processes, at least 1; each runs its "
                    "cells under a SIGALRM deadline with a kill-and-respawn backstop "
                    "(default: %(default)s)"),
            _shared("cache_dir", help="disk tier of the result cache (default: %(default)s)"),
            _shared("no_cache", help="run memory-only (no disk cache tier)"),
            _shared("seed", help="selftest: replay-shuffle seed (default: %(default)s)"),
            _shared("history_dir", help="selftest: also append BENCH_service to this "
                    "run-history store (e.g. benchmarks/history; default: off)"),
        ],
        "serve.daemon:serve_main",
        ("serve.service:ServeConfig", "serve.service:LoadgenOptions"),
    ),
    "cache": Command(
        "Inspect the content-addressed schedule result cache (entries, bytes, "
        "shard fill) and optionally prune it to a byte budget, oldest entries "
        "first.",
        [
            ("--prune", dict(action="store_true",
                             help="garbage-collect the cache down to --max-bytes")),
            ("--max-bytes", dict(type=int, metavar="N", help="byte budget for --prune")),
            ("--json", dict(dest="json_out", action="store_true",
                            help="print the stats as JSON")),
            _shared("cache_dir", default=DEFAULT_CACHE_DIR),
        ],
        "exec.cache:cache_main",
    ),
}

#: The experiment runner: ``python -m repro <experiment>...``.
RUNNER = Command(
    "Regenerate the Software Pipelining Showdown experiments.",
    [
        ("experiments", dict(nargs="*", help="experiment names (see --list); 'all' "
                             "runs every one; or one of the subcommands "
                             + ", ".join(SUBCOMMANDS) + " (each takes --help)")),
        ("--list", dict(dest="listing", action="store_true",
                        help="list available experiments")),
        ("--corpus", dict(action="store_true", help="print the workload corpus "
                          "profiles (Livermore + SPEC92-like) and exit")),
        ("--strict", dict(action="store_true", help="run every experiment cell "
                          "with the exec oracle (independent verification and "
                          "functional simulation); exit 1 naming each cell "
                          "the verdict's per-cell layers find wrong")),
        ("--bench-json", dict(action="store_true", help="also write each "
                              "experiment's cell measurements as "
                              "benchmarks/output/BENCH_<name>.json")),
        ("--ilp-seconds", dict(dest="most_time_limit", type=float, metavar="SECONDS",
                               help="ILP budget per loop (paper: 180s; default: "
                               "%(default)ss)")),
        _shared("jobs"),
        _shared("cache_dir"),
        _shared("no_cache"),
    ],
    "eval.experiments:experiments_main",
    ("eval.experiments:ExperimentConfig",),
)


def _field_default(field: dataclasses.Field) -> Any:
    """A config field's default as its flag shows it (a tuple as a comma list)."""
    value = field.default_factory() if field.default is dataclasses.MISSING else field.default
    return ",".join(value) if isinstance(value, tuple) else value


def _parse(
    command: str, argv: Sequence[str]
) -> Tuple[argparse.ArgumentParser, List[Any], Dict[str, Any]]:
    """Build ``python -m repro <command>`` from its rows and parse ``argv``
    into one instance of each config class, built by field name, and the
    remaining rows' values by ``dest``.  ``--no-cache`` clears
    ``cache_dir``; a config's own check (its ``ValueError`` names the field
    first) is a usage error against that field's flag."""
    contract = SUBCOMMANDS[command] if command else RUNNER
    parser = argparse.ArgumentParser(
        prog=f"python -m repro {command}".rstrip(), description=contract.description
    )
    classes = [_load(path) for path in contract.configs]
    fields = {field.name: field for cls in classes for field in dataclasses.fields(cls)}
    for names, keywords in contract.rows:
        action = parser.add_argument(*names.split(), **{
            key: value() if key in ("default", "help", "choices") and callable(value) else value
            for key, value in keywords.items()
        })
        if action.dest in fields:
            action.default = _field_default(fields[action.dest])
    args = vars(parser.parse_args(argv))
    if args.pop("no_cache", False):
        args["cache_dir"] = None
    try:
        configs = [
            cls(**{field.name: args.pop(field.name)
                   for field in dataclasses.fields(cls) if field.name in args})
            for cls in classes
        ]
    except ValueError as exc:
        named = str(exc).partition(" ")[0]
        flags = [a.option_strings[0] for a in parser._actions if a.dest == named]
        parser.error(": ".join([*flags, str(exc)]))
    return parser, configs, args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else ""
    parser, configs, switches = _parse(command, argv[1:] if command else argv)
    run = _load((SUBCOMMANDS[command] if command else RUNNER).run)
    try:
        return run(*configs, **switches)
    except argparse.ArgumentError as exc:  # the command's own usage check
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
