"""The command line's option strings and defaults, pinned per subcommand.

Each subcommand's parser is captured at ``parse_args`` (so nothing runs)
and its option strings compared with the committed list: a refactor of
how the parsers are built cannot silently drop or rename a flag, or move
a command's default.  The contract tests at the end check that a flag
filling a config field takes that field's default and names none of its
own, and that every subcommand prints its help.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import pathlib

import pytest

from repro.__main__ import RUNNER, SUBCOMMANDS, _load, _parse, main
from repro.obs import export

#: Where bench writes and the views read, as committed: read at collection,
#: before the session fixture points it at a temporary directory.
COMMITTED_OUTPUT_DIR = export.DEFAULT_OUTPUT_DIR

#: Every option string of every subcommand ("" is the experiment runner),
#: ``-h``/``--help`` aside.
OPTION_STRINGS = {
    "": ["--bench-json", "--cache-dir", "--corpus", "--ilp-seconds", "--jobs",
         "--list", "--no-cache", "--strict"],
    "verify": ["--bench", "--verbose", "-v"],
    "bench": ["--cache-dir", "--cell-timeout", "--history-dir", "--jobs", "--limit",
              "--no-cache", "--output-dir", "--quick",
              "--schedulers", "--seed", "--trace", "--trace-dir"],
    "explain": ["--bench", "--json"],
    "analyze": ["--bench", "--check", "--json", "--verbose", "-v"],
    "report": ["--baseline", "--bench", "--check", "--experiments", "--history-dir",
               "--history-last", "--output"],
    "fuzz": ["--cell-timeout", "--corpus-dir", "--findings-dir", "--inject",
             "--jobs", "--max-loops", "--max-ops", "--no-write", "--oracle",
             "--schedulers", "--seconds", "--seed"],
    "serve": ["--budget", "--cache-dir", "--check-equivalence", "--concurrency",
              "--default-budget", "--drain-timeout", "--gauge-interval",
              "--history-dir", "--host", "--jobs", "--lru-entries", "--lru-mb",
              "--max-budget", "--metrics-port", "--no-cache", "--output-dir",
              "--port", "--queue-limit", "--requests", "--seed", "--selftest",
              "--slow-log", "--slow-ms", "--unix"],
    "cache": ["--cache-dir", "--json", "--max-bytes", "--prune"],
    "diff": ["--history-dir", "--json", "--name", "--strict", "--trend", "--verbose",
             "-v"],
    "trend": ["--check", "--history-dir", "--json", "--last", "--verbose", "-v"],
}

#: bench's grid flags and their defaults; the views of the grid take none.
GRID = {"--schedulers": "sgi,most,rau,portfolio", "--limit": None, "--jobs": 1,
        "--cache-dir": ".exec-cache", "--no-cache": False}

#: The views' one input: the BENCH json bench writes.
VIEW = {"--bench": "benchmarks/output"}

#: The shared flags' per-command defaults (every flag, for diff and trend).
DEFAULTS = {
    "": {"--ilp-seconds": 10.0, "--jobs": 1, "--cache-dir": None, "--no-cache": False},
    "verify": VIEW,
    "bench": {**GRID, "--cell-timeout": None, "--seed": 0, "--history-dir": None},
    "explain": {**VIEW, "--json": None},
    "analyze": {**VIEW, "--json": None},
    "report": {"--history-dir": "benchmarks/history", "--bench": "benchmarks/output"},
    "fuzz": {"--jobs": 1, "--seed": 0, "--cell-timeout": 20.0},
    "serve": {"--jobs": 2, "--cache-dir": ".exec-cache", "--no-cache": False, "--seed": 0,
              "--history-dir": None},
    "cache": {"--cache-dir": ".exec-cache", "--json": False},
    "diff": {"--name": "pipeline", "--strict": False, "--trend": False,
             "--history-dir": None, "--verbose": False, "--json": None},
    "trend": {"--history-dir": "benchmarks/history", "--last": 20, "--check": False,
              "--json": None, "--verbose": False},
}


class _Captured(Exception):
    pass


def _parser(monkeypatch, command: str) -> argparse.ArgumentParser:
    def capture(self, args=None, namespace=None):
        raise _Captured(self)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    monkeypatch.setattr(export, "DEFAULT_OUTPUT_DIR", COMMITTED_OUTPUT_DIR)
    with pytest.raises(_Captured) as info:
        main([command] if command else [])
    return info.value.args[0]


def _actions(parser):
    return {
        option: action
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }


@pytest.mark.parametrize("command", sorted(OPTION_STRINGS))
def test_option_strings_are_pinned(monkeypatch, command):
    parser = _parser(monkeypatch, command)
    assert sorted(_actions(parser)) == OPTION_STRINGS[command]


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_shared_flag_defaults_are_per_command(monkeypatch, command):
    actions = _actions(_parser(monkeypatch, command))
    got = {option: actions[option].default for option in DEFAULTS[command]}
    assert got == DEFAULTS[command]


def test_diff_and_trend_positionals(monkeypatch):
    positionals = {
        command: [(action.dest, action.nargs, action.default)
                  for action in _parser(monkeypatch, command)._actions
                  if not action.option_strings]
        for command in ("diff", "trend")
    }
    assert positionals == {
        "diff": [("old", None, None), ("new", None, None)],
        "trend": [("name", "?", "pipeline")],
    }


def test_bench_takes_one_optional_corpus(monkeypatch):
    """``bench <corpus>`` benches that corpus alone (``run_sweep``: the
    ``BENCH_sweep_<corpus>.json`` file and history series); without it
    the standard corpora run."""
    import repro.exec.bench as bench

    [corpus] = [action for action in _parser(monkeypatch, "bench")._actions
                if not action.option_strings]
    assert (corpus.dest, corpus.nargs, corpus.default) == ("corpus", "?", None)
    monkeypatch.undo()
    ran = []

    def runner(name):
        def run(*args):  # (corpus,) options for run_sweep; options alone otherwise
            ran.append((name, *args[:-1]))
            raise _Captured()
        return run

    monkeypatch.setattr(bench, "run_sweep", runner("run_sweep"))
    monkeypatch.setattr(bench, "run_pipeline_bench", runner("run_pipeline_bench"))
    for argv in (["bench", "spec92"], ["bench", "--quick"]):
        with pytest.raises(_Captured):
            main(argv)
    assert ran == [("run_sweep", "spec92"), ("run_pipeline_bench",)]


def test_bench_files_history_only_when_asked(monkeypatch):
    """bench files a run in the run-history store only under
    ``--history-dir``, as ``serve --selftest`` does."""
    import repro.exec.bench as bench

    filed = []

    def run(options):
        filed.append(options.history_dir)
        raise _Captured()

    monkeypatch.setattr(bench, "run_pipeline_bench", run)
    for argv in (["bench", "--quick"], ["bench", "--quick", "--history-dir", "runs"]):
        with pytest.raises(_Captured):
            main(argv)
    assert filed == [None, pathlib.Path("runs")]


def _no_loops(monkeypatch):
    """Make any corpus load fail loudly."""
    import repro.exec.cells as cells

    def refuse(*args, **kwargs):
        raise AssertionError("a corpus was loaded")

    monkeypatch.setattr(cells, "corpus_loop_keys", refuse)


@pytest.mark.parametrize("command", ["bench", "bench livermore", "fuzz"])
def test_unknown_scheduler_rejected_before_any_loop(monkeypatch, capsys, command):
    _no_loops(monkeypatch)
    with pytest.raises(SystemExit) as info:
        main(command.split() + ["--schedulers", "bogus"])
    assert info.value.code == 2
    assert "bogus" in capsys.readouterr().err


def test_cache_prune_needs_a_byte_budget(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["cache", "--cache-dir", str(tmp_path), "--prune"])
    assert info.value.code == 2
    assert "--max-bytes" in capsys.readouterr().err


@pytest.mark.parametrize("view", ["verify", "explain", "analyze"])
@pytest.mark.parametrize("flag", sorted(GRID))
def test_views_take_no_grid_flag(monkeypatch, capsys, view, flag):
    """A view reads the grid bench wrote; it cannot be told to run one."""
    _no_loops(monkeypatch)
    with pytest.raises(SystemExit) as info:
        main([view, "livermore", flag, *([] if flag == "--no-cache" else ["1"])])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_verify_reads_a_portfolio_grid(tmp_path, capsys):
    assert main(["bench", "livermore", "--quick", "--limit", "1", "--schedulers",
                 "portfolio", "--no-cache", "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["verify", "livermore", "--bench",
                 str(tmp_path / "BENCH_sweep_livermore_portfolio_limit1.json")]) == 0
    out = capsys.readouterr().out
    assert "portfolio" in out


def test_bench_trace_accepts_the_portfolio(tmp_path, capsys):
    code = main([
        "bench", "livermore", "--quick", "--trace", "--limit", "1",
        "--schedulers", "portfolio", "--output-dir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "lk01_hydro" in out and "PORT II" in out


#: The config classes each command's flags fill, as an empty command line
#: builds them (``serve --selftest`` fills the selftest's options too).
CONFIGS = {
    "bench": ("repro.exec.bench", ["BenchOptions"], []),
    "fuzz": ("repro.fuzz.engine", ["FuzzConfig"], []),
    "serve": ("repro.serve.service", ["ServeConfig", "LoadgenOptions"], []),
    "serve --selftest": ("repro.serve.service", ["ServeConfig", "LoadgenOptions"],
                         ["--selftest"]),
    "": ("repro.eval.experiments", ["ExperimentConfig"], []),
}


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_an_empty_command_line_builds_the_class_defaults(command):
    """Every default a flag shows is its config field's: parsed from no
    flags, each config equals the class's own default instance."""
    module, classes, argv = CONFIGS[command]
    module = importlib.import_module(module)
    _, configs, _ = _parse(command.split()[0] if command else "", argv)
    assert configs == [getattr(module, name)() for name in classes]


@pytest.mark.parametrize("command", ["", *SUBCOMMANDS])
def test_no_row_that_fills_a_field_names_a_default(command):
    contract = SUBCOMMANDS[command] if command else RUNNER
    fields = {
        field.name
        for path in contract.configs
        for field in dataclasses.fields(_load(path))
    }
    filling = [(names, keywords) for names, keywords in contract.rows
               if _dest(names, keywords) in fields]
    assert bool(filling) == bool(fields)
    assert [names for names, keywords in filling if "default" in keywords] == []


def _dest(names, keywords):
    """The dest argparse gives a row."""
    keywords = {key: value for key, value in keywords.items()
                if key not in ("default", "help", "choices")}
    return argparse.ArgumentParser().add_argument(*names.split(), **keywords).dest


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_every_subcommand_has_a_help_and_a_runner(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert f"usage: python -m repro {command}" in capsys.readouterr().out
    assert callable(_load(SUBCOMMANDS[command].run))


def test_the_selftest_writes_where_bench_writes():
    """Both default to the one output-directory constant, so the test
    session's redirect of it reaches a default selftest too."""
    from repro.exec.bench import BenchOptions
    from repro.serve.service import LoadgenOptions

    assert LoadgenOptions().output_dir == BenchOptions().output_dir == export.DEFAULT_OUTPUT_DIR
