"""Content addresses for the experiment cache.

A cached result is only reusable when everything that determined it is
unchanged: what the cell asks for and the code that answers it.  A cell's
key hashes both.  The cell's own fields (:meth:`Cell.to_dict` without
``trace_dir``, which only says where a trace is written) name the loop by
registry key, the scheduler, its options, trips, seed, deadline and
flags.  The code is a digest of every source in the import closure of
what the cell runs: :mod:`repro.exec.runner` plus the cell's registry
driver module, walked through module-level and call-time imports alike.
The loop IR and the machine follow from the two (the loop key names a
builder in the closure, and every cell runs on ``runner.MACHINE``), so an
edited kernel, latency or checker re-runs exactly the cells whose code
imports it, and an edit to code no cell runs (the CLI, the daemon, the
dashboards, the engine, cache and pool of the parent side, this module)
re-runs nothing.

The walk reads import statements, not the ``_EXPORTS`` tables through
which package inits re-export names on first access, so code inside
``repro`` imports each name from its defining module: a module reached
only through a package ``__getattr__`` would run without being keyed
(``tests/test_cache_key.py`` runs cells and checks every module they load
is in their key).  The digest is taken on a process's first key, never at
import: about 0.3 s for the 63 modules an ``sgi`` cell runs, on a
2-vCPU VM, then one more parse for each module another driver adds.
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import json
import pathlib
from functools import lru_cache
from typing import Any, Dict, Iterable, Tuple

from ..ir.loop import Loop
from ..schedulers import REGISTRY
from .cells import Cell

#: The ``repro`` package directory every source digest is taken under, and
#: the package's name.
_ROOT = pathlib.Path(__file__).resolve().parent.parent
_PACKAGE = __package__.partition(".")[0]

#: The module every cell runs through, whatever its scheduler.
_RUNNER = f"{_PACKAGE}.exec.runner"


def _sha256(payload: Any) -> str:
    """SHA-256 of a canonical (sorted-keys, no-whitespace) JSON rendering."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint_loop(loop: Loop) -> str:
    """Content hash of a loop body: operations, dependences, metadata."""
    ops = [
        {
            "i": op.index,
            "opcode": op.opcode,
            "class": op.opclass.value,
            "dests": list(op.dests),
            "srcs": list(op.srcs),
            "mem": None
            if op.mem is None
            else [op.mem.base, op.mem.offset, op.mem.stride, op.mem.width, op.mem.is_store],
            "tags": sorted(op.tags),
        }
        for op in loop.ops
    ]
    arcs = sorted(
        (a.src, a.dst, a.latency, a.omega, a.kind.value, a.value) for a in loop.ddg.arcs
    )
    return _sha256(
        {
            "name": loop.name,
            "trip_count": loop.trip_count,
            "weight": loop.weight,
            "live_in": sorted(loop.live_in),
            "live_out": sorted(loop.live_out),
            "known_parity": dict(sorted(loop.known_parity.items())),
            "ops": ops,
            "arcs": arcs,
        }
    )


def _package_modules(root: pathlib.Path) -> Dict[str, pathlib.Path]:
    """Every module under the package directory ``root``, by dotted name
    (a package by its ``__init__``)."""
    modules = {}
    for path in root.rglob("*.py"):
        parts = path.relative_to(root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join((_PACKAGE, *parts))] = path
    return modules


@lru_cache(maxsize=None)
def _imports(module: str, is_package: bool, source: bytes) -> Tuple[str, ...]:
    """Every module name ``source`` may import, at any depth of its body.

    ``from m import n`` names both ``m`` and ``m.n``: ``n`` may be a
    submodule.  Names that are not modules resolve to no file and drop out
    of the walk.  Memoised on the source: the drivers' closures share most
    modules, and parsing is the walk's whole cost.
    """
    package = module if is_package else module.rpartition(".")[0]
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
            names += [base, *(f"{base}.{alias.name}" for alias in node.names)]
    return tuple(names)


def import_closure(modules: Iterable[str], root: pathlib.Path = _ROOT) -> Dict[str, pathlib.Path]:
    """Every ``repro`` module that running ``modules`` may execute, with its
    source file: their imports, module-level and call-time, followed
    transitively.  A submodule brings its packages' ``__init__`` files."""
    files = _package_modules(root)
    found: Dict[str, pathlib.Path] = {}
    todo = list(modules)
    while todo:
        module = todo.pop()
        if module in found or module not in files:
            continue
        path = found[module] = files[module]
        todo.append(module.rpartition(".")[0])
        todo += _imports(module, path.name == "__init__.py", path.read_bytes())
    return found


@lru_cache(maxsize=None)
def closure_digest(modules: Tuple[str, ...], root: pathlib.Path = _ROOT) -> str:
    """SHA-256 over the sources in the import closure of ``modules``, each
    named by its path relative to ``root`` (so where the checkout lives
    does not enter it).  Memoised: one walk per process and root."""
    digest = hashlib.sha256()
    for path in sorted(import_closure(modules, root).values()):
        source = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(source)}\0".encode())
        digest.update(source)
    return digest.hexdigest()


def _driver(name: str) -> str:
    return importlib.util.resolve_name(REGISTRY[name].module, _PACKAGE)


def cell_modules(scheduler: str) -> Tuple[str, ...]:
    """The modules a cell of ``scheduler`` runs: the runner, plus the
    registry driver it loads by name (``baseline`` has none)."""
    return (_RUNNER, _driver(scheduler)) if scheduler in REGISTRY else (_RUNNER,)


def code_version() -> str:
    """Digest of the code every registered scheduler's cells run: the
    provenance stamp of a BENCH report or a history record."""
    return closure_digest((_RUNNER, *map(_driver, REGISTRY)), _ROOT)


def cell_key(cell: Cell) -> str:
    """The content address of one experiment cell.

    The cell's fields, ``trace_dir`` aside, plus the digest of the code it
    runs.  Every flag is a field: traced, explained, oracle and analyzed
    results each carry payload a plain result lacks.  The digest is
    computed on the first key, never at import.
    """
    fields = cell.to_dict()
    del fields["trace_dir"]
    return _sha256({**fields, "code": closure_digest(cell_modules(cell.scheduler), _ROOT)})
