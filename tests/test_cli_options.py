"""The command line's option strings and defaults, pinned per subcommand.

Each subcommand's parser is captured at ``parse_args`` (so nothing runs)
and its option strings compared with the committed list: a refactor of
how the parsers are built cannot silently drop or rename a flag, or move
a command's default.
"""

from __future__ import annotations

import argparse

import pytest

from repro.__main__ import main

#: Every option string of every subcommand ("" is the experiment runner),
#: ``-h``/``--help`` aside.
OPTION_STRINGS = {
    "": ["--bench-json", "--cache-dir", "--corpus", "--ilp-seconds", "--jobs",
         "--list", "--no-cache", "--strict"],
    "verify": ["--ilp-seconds", "--schedulers", "--verbose", "-v"],
    "bench": ["--cache-dir", "--cell-timeout", "--explain", "--history-dir",
              "--jobs", "--no-cache", "--no-history", "--output-dir", "--profile",
              "--quick", "--schedulers", "--seed", "--trace", "--trace-dir"],
    "sweep": ["--cache-dir", "--cell-timeout", "--explain", "--history-dir",
              "--jobs", "--no-cache", "--no-history", "--output-dir", "--profile",
              "--quick", "--schedulers", "--seed", "--trace", "--trace-dir"],
    "trace": ["--cell-timeout", "--check", "--ilp-seconds", "--jobs", "--limit",
              "--max-nodes", "--schedulers", "--seed", "--trace-dir"],
    "explain": ["--ilp-seconds", "--json", "--limit", "--schedulers"],
    "analyze": ["--check", "--ilp-seconds", "--json", "--limit", "--schedulers",
                "--verbose", "-v"],
    "report": ["--baseline", "--bench", "--cache-dir", "--check", "--corpus",
               "--experiments", "--history-dir", "--history-last", "--html",
               "--ilp-seconds", "--jobs", "--limit", "--no-cache", "--output",
               "--schedulers"],
    "fuzz": ["--cell-timeout", "--corpus-dir", "--findings-dir", "--inject",
             "--jobs", "--max-loops", "--max-ops", "--no-write", "--oracle",
             "--schedulers", "--seconds", "--seed"],
    "serve": ["--budget", "--cache-dir", "--check-equivalence", "--concurrency",
              "--default-budget", "--drain-timeout", "--gauge-interval",
              "--history-dir", "--host", "--jobs", "--lru-entries", "--lru-mb",
              "--max-budget", "--metrics-port", "--no-cache", "--output-dir",
              "--port", "--queue-limit", "--requests", "--seed", "--selftest",
              "--slow-log", "--slow-ms", "--unix"],
    "cache": ["--cache-dir", "--json", "--max-bytes", "--max-mb", "--prune"],
    # Still parsed by their own modules' ``main`` (not ``_parse``).
    "diff": ["--history-dir", "--json", "--name", "--strict", "--time-tolerance",
             "--trend", "--verbose", "-v"],
    "trend": ["--check", "--history-dir", "--json", "--last", "--verbose", "-v"],
}

#: The shared flags' per-command defaults (every flag, for diff and trend).
DEFAULTS = {
    "": {"--ilp-seconds": 10.0, "--jobs": 1, "--cache-dir": None, "--no-cache": False},
    "verify": {"--ilp-seconds": 2.0},
    "bench": {"--jobs": 1, "--cache-dir": ".exec-cache", "--no-cache": False,
              "--cell-timeout": None, "--seed": 0, "--history-dir": "benchmarks/history"},
    "sweep": {"--jobs": 1, "--cache-dir": ".exec-cache", "--no-cache": False,
              "--cell-timeout": None, "--seed": 0, "--history-dir": "benchmarks/history"},
    "trace": {"--limit": None, "--jobs": 1, "--ilp-seconds": 5.0, "--max-nodes": 4000,
              "--cell-timeout": 60.0, "--seed": 0},
    "explain": {"--limit": None, "--ilp-seconds": 5.0, "--json": None},
    "analyze": {"--limit": None, "--ilp-seconds": 2.0, "--json": None},
    "report": {"--limit": None, "--ilp-seconds": 5.0, "--history-dir": "benchmarks/history",
               "--jobs": 1, "--cache-dir": None, "--no-cache": False},
    "fuzz": {"--jobs": 1, "--seed": 0, "--cell-timeout": 20.0},
    "serve": {"--jobs": 2, "--cache-dir": ".exec-cache", "--no-cache": False, "--seed": 0,
              "--history-dir": None},
    "cache": {"--cache-dir": ".exec-cache", "--json": False},
    "diff": {"--name": "pipeline", "--time-tolerance": 2.0, "--strict": False,
             "--trend": False, "--history-dir": None, "--verbose": False, "--json": None},
    "trend": {"--history-dir": "benchmarks/history", "--last": 20, "--check": False,
              "--json": None, "--verbose": False},
}


class _Captured(Exception):
    pass


def _parser(monkeypatch, command: str) -> argparse.ArgumentParser:
    def capture(self, args=None, namespace=None):
        raise _Captured(self)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
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


def _no_loops(monkeypatch):
    """Make any corpus load fail loudly."""
    import repro.exec.cells as cells
    import repro.verify.api as verify_api

    def refuse(*args, **kwargs):
        raise AssertionError("a corpus was loaded")

    monkeypatch.setattr(verify_api, "corpus_loops", refuse)
    monkeypatch.setattr(cells, "corpus_loop_keys", refuse)


@pytest.mark.parametrize(
    "command",
    ["verify", "bench", "sweep livermore", "trace", "explain", "analyze", "report", "fuzz"],
)
def test_unknown_scheduler_rejected_before_any_loop(monkeypatch, capsys, command):
    _no_loops(monkeypatch)
    with pytest.raises(SystemExit) as info:
        main(command.split() + ["--schedulers", "bogus"])
    assert info.value.code == 2
    assert "bogus" in capsys.readouterr().err


def test_verify_accepts_the_portfolio(monkeypatch, capsys):
    import repro.verify.api as verify_api

    real = verify_api.corpus_loops
    monkeypatch.setattr(
        verify_api, "corpus_loops", lambda corpus, machine: real(corpus, machine)[:1]
    )
    assert main(["verify", "livermore", "--schedulers", "portfolio"]) == 0
    out = capsys.readouterr().out
    assert "portfolio" in out


def test_trace_accepts_the_portfolio(tmp_path, capsys):
    code = main([
        "trace", "livermore", "--limit", "1", "--schedulers", "portfolio",
        "--trace-dir", str(tmp_path),
    ])
    assert code == 0
    assert "lk01_hydro" in capsys.readouterr().out
