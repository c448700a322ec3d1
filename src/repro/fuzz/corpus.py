"""The checked-in regression corpus of minimized reproducers.

Every finding the fuzzer minimizes lands here as one JSON file that
``tests/test_fuzz_corpus.py`` replays forever after.  Entries are named

    ``<kind>__<scheduler>[__<fault>]__<fingerprint12>.json``

where ``kind`` is the oracle layer that fired, ``scheduler`` the pipeliner
it fired against, ``fault`` the seeded injection (when one was armed), and
``fingerprint12`` the first 12 hex digits of the minimized loop's IR
content hash — so a reproducer's filename already says what broke, where,
and on which loop.

An entry's ``expect`` field records the verdict the replay must maintain:

* ``"violation"`` — the finding reproduces on current code (a live bug;
  replay fails until it is fixed, then the entry should flip to clean);
* ``"clean"`` — the loop passes on current code.  Entries produced under
  ``--inject`` are clean by construction; their value is the recorded
  ``injected_fault``, which the replay re-applies to prove the oracle
  layer that caught it originally still catches it (a regression test of
  the oracle itself).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..obs.export import atomic_write_text
from ..workloads.mutate import LoopSpec, normalize
from .oracle import Violation

ENTRY_FORMAT = 1
DEFAULT_CORPUS_DIR = os.path.join("tests", "fuzz_corpus")


@dataclass
class CorpusEntry:
    """One minimized reproducer, as stored on disk."""

    name: str
    spec: LoopSpec
    expect: str  # "violation" | "clean"
    violation: Optional[Violation] = None
    injected_fault: Optional[str] = None
    schedulers: Tuple[str, ...] = ("sgi", "most", "rau")
    seed: int = 0
    fingerprint: str = ""
    n_ops: int = 0
    note: str = ""
    path: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": ENTRY_FORMAT,
            "name": self.name,
            "expect": self.expect,
            "violation": self.violation.to_dict() if self.violation else None,
            "injected_fault": self.injected_fault,
            "schedulers": list(self.schedulers),
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "n_ops": self.n_ops,
            "note": self.note,
            "spec": self.spec.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any], path: str = "") -> "CorpusEntry":
        violation = data.get("violation")
        return cls(
            name=data["name"],
            spec=normalize(LoopSpec.from_dict(data["spec"])),
            expect=data.get("expect", "violation"),
            violation=Violation.from_dict(violation) if violation else None,
            injected_fault=data.get("injected_fault"),
            schedulers=tuple(data.get("schedulers", ("sgi", "most", "rau"))),
            seed=data.get("seed", 0),
            fingerprint=data.get("fingerprint", ""),
            n_ops=data.get("n_ops", 0),
            note=data.get("note", ""),
            path=path,
        )


def entry_name(violation: Violation, fingerprint: str,
               injected_fault: Optional[str] = None) -> str:
    parts = [violation.kind, violation.scheduler]
    if injected_fault:
        # Distinct seeded faults can minimize to the same loop; keep one
        # reproducer per (fault, layer) rather than letting them collide.
        parts.append(injected_fault.replace("-", ""))
    parts.append(fingerprint[:12])
    return "__".join(parts)


def write_entry(directory: str, entry: CorpusEntry) -> str:
    """Atomically write one entry; returns its path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{entry.name}.json")
    atomic_write_text(path, json.dumps(entry.to_dict(), indent=2, sort_keys=True) + "\n")
    entry.path = path
    return path


def load_entries(directory: str = DEFAULT_CORPUS_DIR) -> List[CorpusEntry]:
    """Load every reproducer in a corpus directory (sorted by name)."""
    if not os.path.isdir(directory):
        return []
    entries: List[CorpusEntry] = []
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".json"):
            continue
        path = os.path.join(directory, filename)
        with open(path) as handle:
            entries.append(CorpusEntry.from_dict(json.load(handle), path=path))
    return entries
