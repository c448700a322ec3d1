"""Stable content hashing for the experiment cache.

A cached schedule is only reusable when *everything* that determined it is
unchanged: the loop IR, the machine description, the pipeliner options and
the scheduling code itself.  Each of those gets a canonical JSON rendering
hashed with SHA-256; the cell key combines them, so any drift — an edited
kernel, a latency tweak, a new pruning rule — silently invalidates exactly
the affected entries and nothing else.  An oracle cell also carries the
checkers' verdict, so its key covers the ``verify`` sources as well.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from functools import lru_cache
from typing import Any, Iterable

from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription

#: The ``repro`` package directory every source digest is taken under.
_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Subpackages whose source participates in scheduling or simulation; editing
# any of them invalidates every cache entry.  ``exec`` itself and ``eval``
# are deliberately excluded: they orchestrate results but never change
# them.  ``verify`` checks them: it is in the key of oracle cells only.
_RESULT_BEARING = (
    "ir",
    "machine",
    "core",
    "most",
    "rau",
    "ilp",
    "portfolio",
    "regalloc",
    "sim",
    "pipeline",
    "baseline",
    "workloads",
    "analyze",
)
#: Top-level modules that shape results: the registry picks each
#: scheduler's options class and presets.
_RESULT_BEARING_FILES = ("schedulers.py",)


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


def fingerprint_machine(machine: MachineDescription) -> str:
    """Content hash of a machine description."""
    tables = {
        opclass.value: sorted(
            (use.offset, use.resource, use.count) for use in table.uses
        )
        for opclass, table in machine.tables.items()
    }
    return _sha256(
        {
            "name": machine.name,
            "availability": dict(sorted(machine.availability.items())),
            "latencies": {c.value: l for c, l in sorted(machine.latencies.items(), key=lambda kv: kv[0].value)},
            "tables": tables,
            "store_to_load": machine.store_to_load_latency,
            "mem_serialize": machine.mem_serialize_latency,
            "fp_regs": machine.fp_regs,
            "int_regs": machine.int_regs,
            "banks": machine.memory_banks,
            "bellows": machine.bellows_depth,
        }
    )


def _source_digest(root: pathlib.Path, paths: Iterable[pathlib.Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@lru_cache(maxsize=1)
def code_version() -> str:
    """Hash of every result-bearing source file in the ``repro`` package.

    Computed once per process; any edit to scheduling, allocation or
    simulation code changes the version and therefore every cache key.
    """
    paths = [path for sub in _RESULT_BEARING for path in sorted((_ROOT / sub).glob("*.py"))]
    return _source_digest(_ROOT, paths + [_ROOT / name for name in _RESULT_BEARING_FILES])


@lru_cache(maxsize=1)
def checker_version(root: pathlib.Path = _ROOT) -> str:
    """Hash of the ``verify`` sources under ``root`` (a ``repro`` package
    directory): the checkers whose verdict an oracle cell carries."""
    return _source_digest(root, sorted((root / "verify").glob("*.py")))


def cell_key(
    loop_fingerprint: str,
    machine_fingerprint: str,
    scheduler: str,
    options_json: str,
    trips: tuple,
    seed: int,
    simulate: bool,
    timeout: float | None,
    trace: bool = False,
    explain: bool = False,
    oracle: bool = False,
    analyze: bool = False,
) -> str:
    """The content address of one experiment cell.

    ``trace`` is part of the key because traced results carry payload
    (folded ``obs`` counters) that untraced results lack; where the trace
    is *written* is not, so moving the output directory reuses the cache.
    ``explain`` participates for the same reason: explained results carry
    a binding-constraint attribution payload.  So does ``oracle``: oracle
    results carry independent-verification and functional-sim verdicts.
    ``analyze`` likewise: analyzed results carry the certified refined II
    lower bound.  An oracle cell's key also covers the checkers'
    sources (:func:`checker_version`), so a checker edit re-runs exactly the
    oracle cells.
    """
    payload = {
        "loop": loop_fingerprint,
        "machine": machine_fingerprint,
        "scheduler": scheduler,
        "options": options_json,
        "trips": list(trips),
        "seed": seed,
        "simulate": simulate,
        "timeout": timeout,
        "trace": trace,
        "explain": explain,
        "oracle": oracle,
        "analyze": analyze,
        "code": code_version(),
    }
    if oracle:
        payload["checkers"] = checker_version()
    return _sha256(payload)
