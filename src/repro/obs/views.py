"""The grid's views: ``python -m repro verify``, ``explain`` and ``analyze``.

Each reads the BENCH json ``repro bench <corpus> --quick`` wrote
(:func:`load_grid`) and prints from it; none runs a cell.  The output
steps the other readers of BENCH files share (``bench --trace``,
``report``, ``diff``, ``trend``) live here too.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, Mapping, Optional, Sequence

from ..exec.cells import CORPORA, CellResult
from . import export
from .diffbench import load_bench


def corpora() -> str:
    """The grid's corpora, and ``all``, as one phrase."""
    return f"{', '.join(CORPORA)} or all"


def invalid(path, problems) -> bool:
    """Report validation problems with the file at ``path``; True if any."""
    if problems:
        print(f"{path} is invalid:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
    return bool(problems)


def print_or_write(json_out: Optional[str], payload: str, text: str) -> None:
    """Print ``text`` and write the JSON ``payload`` to ``--json PATH``, or
    print only the payload for ``--json -``."""
    if json_out == "-":
        print(payload)
        return
    print(text)
    if json_out:
        path = pathlib.Path(json_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        export.atomic_write_text(path, payload + "\n")
        print(f"wrote {path}")


def load_grid(corpus: str, bench: str) -> Dict[str, Any]:
    """A view's grid: the BENCH payload ``bench`` names (in a directory,
    the ``BENCH_sweep_<corpus>.json`` that ``repro bench <corpus> --quick``
    writes), so every number a view prints is that file's.  A missing
    file, or one that holds another corpus's grid, is a usage error; a
    missing file in a directory names the bench command that writes it."""
    if corpus not in (*CORPORA, "all"):
        raise argparse.ArgumentError(None, f"unknown corpus {corpus!r} (expected {corpora()})")
    path = pathlib.Path(bench)
    if path.is_dir() or not (path.is_file() or path.suffix == ".json"):
        directory, path = path, path / f"BENCH_sweep_{corpus}.json"
        if not path.is_file():
            command = f"python -m repro bench {corpus} --quick"
            if directory != pathlib.Path(export.DEFAULT_OUTPUT_DIR):
                command += f" --output-dir {directory}"
            raise argparse.ArgumentError(None, f"no BENCH json at {path}; `{command}` writes it")
    elif not path.is_file():
        raise argparse.ArgumentError(None, f"no BENCH json at {path}")
    report = load_bench(path)
    if report.get("corpora") != [corpus]:
        raise argparse.ArgumentError(
            None, f"{path} is not the {corpus} grid (corpora: {report.get('corpora')})")
    print(f"grid: {path}, {report['totals']['cells']} cells", file=sys.stderr)
    return report


def cell_results(report: Mapping[str, Any]) -> list:
    """A BENCH payload's cells as results, in grid order."""
    return [CellResult.from_dict(cell) for cell in report["cells"]]


def explanations(cells: Sequence[Mapping[str, Any]]) -> list:
    """One explanation dict per BENCH cell, under its loop's bare name
    (``spec92:doduc/doduc_state`` → ``doduc_state``); a crashed cell's
    dict names its loop and scheduler and carries the ``error``."""
    return [
        {"loop": cell["loop"].partition(":")[2].rpartition("/")[2],
         "scheduler": cell["scheduler"],
         **(cell.get("explanation") or {"error": cell.get("error") or "no explanation"})}
        for cell in cells
    ]


def verify_main(*, corpus: str, bench: str, verbose: bool) -> int:
    """``python -m repro verify <corpus>``: every artifact's diagnostics;
    1 on any violation of the grid's verdict."""
    from ..exec.verdict import format_verify

    report = load_grid(corpus, bench)
    print(format_verify(corpus, report, verbose=verbose))
    return 1 if report["totals"]["violations"] else 0


def explain_main(*, corpus: str, bench: str, json_out: Optional[str]) -> int:
    """``python -m repro explain <corpus>``: II-gap attribution.

    Prints the binding-constraint class every cell of the corpus grid
    carries: the critical recurrence circuit or bottleneck resource when
    II == MinII, and, when II > MinII, a certificate citation or a read of
    the trail the driver wrote below the achieved II (register pressure,
    search budget or exhaustion, or every lower II proven infeasible).
    Each explanation was computed in its cell from that cell's own run.
    """
    from .explain import explanations_to_json, format_explanations

    found = explanations(load_grid(corpus, bench)["cells"])
    print_or_write(json_out, explanations_to_json(found), format_explanations(found))
    crashed = [f"{e['loop']} × {e['scheduler']}" for e in found if "binding" not in e]
    if crashed:
        print(f"{len(crashed)} cell(s) errored: {', '.join(crashed)}", file=sys.stderr)
    return 1 if crashed else 0


def analyze_main(*, corpus: str, bench: str, check: bool, verbose: bool,
                 json_out: Optional[str]) -> int:
    """``python -m repro analyze <corpus>``: certified II lower bounds.

    Prints, per loop, MinII → the refined certified bound (schedulability
    and allocatability) → the II each pipeliner achieved in the grid.  The
    bounds are derived here, in the view; a cell whose own recorded bound
    differs from them fails its loop's row.  ``check`` also validates
    every shipped certificate with the independent checker in
    ``repro.verify`` and cross-checks each achieved or proved-optimal II
    against the certified bounds, exiting non-zero on any failure.
    """
    from ..analyze.api import analyze_corpus

    grid = load_grid(corpus, bench)
    report = analyze_corpus(
        corpus, cell_results(grid), check=check, violations=grid["totals"]["violations"],
    )
    payload = json.dumps([e.to_dict() for e in report.entries], indent=1, sort_keys=True)
    print_or_write(json_out, payload, report.formatted(verbose=verbose))
    return 0 if report.ok else 1
