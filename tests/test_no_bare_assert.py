"""Invariants in the program are real checks: no bare ``assert`` in src/repro.

``python -O`` strips ``assert`` statements, so an invariant written as one
silently stops being checked.  The program raises instead (or is shaped
so the check is not needed); tests are free to use ``assert``.
"""

from __future__ import annotations

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent


def test_no_assert_statement_in_the_package():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(SRC.parent)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, "bare assert (stripped by python -O): " + ", ".join(found)
