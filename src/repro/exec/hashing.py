"""Stable content hashing for the experiment cache.

A cached schedule is only reusable when *everything* that determined it is
unchanged: the loop IR, the machine description, the pipeliner options and
the scheduling code itself.  Each of those gets a canonical JSON rendering
hashed with SHA-256; the cell key combines them, so any drift — an edited
kernel, a latency tweak, a new pruning rule — silently invalidates exactly
the affected entries and nothing else.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from functools import lru_cache
from typing import Any

from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription

# Subpackages whose source participates in scheduling or simulation; editing
# any of them invalidates every cache entry.  ``exec`` itself, ``eval`` and
# ``verify`` are deliberately excluded: they orchestrate and check results
# but never change them.
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


@lru_cache(maxsize=1)
def code_version() -> str:
    """Hash of every result-bearing source file in the ``repro`` package.

    Computed once per process; any edit to scheduling, allocation or
    simulation code changes the version and therefore every cache key.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for sub in _RESULT_BEARING:
        for path in sorted((root / sub).glob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


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
    lower bound.
    """
    return _sha256(
        {
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
    )
