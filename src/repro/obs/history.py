"""The run-history store: an append-only time series of BENCH payloads.

``repro diff`` compares exactly two runs; one pair cannot tell noise
from drift.  This store keeps *every* run — bench grid, service load
harness, hot-path micros — as a timestamped, provenance-stamped record
under ``benchmarks/history/<name>/<ts>__<sha12>.json``, where ``<ts>``
is the payload's ``created_at`` compacted to sort chronologically and
``<sha12>`` is the first 12 chars of the git SHA the run was taken at
(falling back to the code_version hash outside a checkout).  Each
record is the full BENCH payload, so any historical run can be re-diffed
or re-rendered after the fact.

A per-name ``index.json`` summarises the series (file, created_at, git
SHA, code version, cell count) — it is what the trend layer and the CI
history cache key read, and it is always regenerated from the record
files themselves, so records written by other processes (or restored
from a CI cache) are picked up on the next append or reindex.  Records
and the index are written atomically (temp file + rename), so a writer
killed mid-append leaves no partial record and no truncated index.
"""

from __future__ import annotations

import datetime
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from .export import atomic_write_text
from .provenance import provenance

DEFAULT_HISTORY_DIR = pathlib.Path("benchmarks") / "history"


def _compact_ts(created_at: Optional[str]) -> str:
    """``2026-08-08T19:29:59.123+00:00`` → ``20260808T192959.123456Z``."""
    if created_at:
        try:
            stamp = datetime.datetime.fromisoformat(created_at.replace("Z", "+00:00"))
            if stamp.tzinfo is not None:
                stamp = stamp.astimezone(datetime.timezone.utc)
            return stamp.strftime("%Y%m%dT%H%M%S.%f") + "Z"
        except ValueError:
            pass
    now = datetime.datetime.now(datetime.timezone.utc)
    return now.strftime("%Y%m%dT%H%M%S.%f") + "Z"


@dataclass
class RunRecord:
    """One stored run: identity fields plus the full BENCH payload."""

    name: str
    path: pathlib.Path
    created_at: Optional[str]
    git_sha: Optional[str]
    code_version: Optional[str]
    host_fingerprint: Optional[str]
    payload: Dict[str, Any]

    @property
    def sha12(self) -> str:
        return (self.git_sha or self.code_version or "unknown")[:12]

    def meta(self) -> Dict[str, Any]:
        return {
            "file": self.path.name,
            "created_at": self.created_at,
            "git_sha": self.git_sha,
            "code_version": self.code_version,
            "host_fingerprint": self.host_fingerprint,
            "cells": len(self.payload.get("cells", []) or []),
        }


class HistoryStore:
    """Append/load/list run records under one history root directory."""

    def __init__(self, root=DEFAULT_HISTORY_DIR):
        self.root = pathlib.Path(root)

    # -- writing -------------------------------------------------------
    def append(self, payload: Mapping[str, Any], name: Optional[str] = None) -> pathlib.Path:
        """File one BENCH payload as a history record; returns its path.

        The payload is stamped with provenance when the writer did not
        already do so, so out-of-band callers still produce attributable
        records.
        """
        payload = dict(payload)
        name = name or str(payload.get("name") or "unnamed")
        if not payload.get("provenance"):
            payload["provenance"] = provenance()
        prov = payload["provenance"]
        sha12 = (prov.get("git_sha") or payload.get("code_version") or "unknown")[:12]
        directory = self.root / name
        directory.mkdir(parents=True, exist_ok=True)
        stem = f"{_compact_ts(payload.get('created_at'))}__{sha12}"
        path = directory / f"{stem}.json"
        serial = 0
        while path.exists():
            serial += 1
            path = directory / f"{stem}-{serial}.json"
        atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
        self.reindex(name)
        return path

    def reindex(self, name: str) -> pathlib.Path:
        """Regenerate ``index.json`` from the record files on disk."""
        runs = self.runs(name)
        index = {
            "name": name,
            "runs": [run.meta() for run in runs],
        }
        path = self.root / name / "index.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, json.dumps(index, indent=1, sort_keys=True) + "\n")
        return path

    # -- reading -------------------------------------------------------
    def names(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(
            child.name
            for child in self.root.iterdir()
            if child.is_dir() and any(child.glob("*__*.json"))
        )

    def run_paths(self, name: str) -> List[pathlib.Path]:
        directory = self.root / name
        if not directory.is_dir():
            return []
        return sorted(
            path for path in directory.glob("*.json")
            if "__" in path.name and path.name != "index.json"
        )

    def runs(self, name: str, last: Optional[int] = None) -> List[RunRecord]:
        """All stored runs of ``name``, oldest first (``last`` trims the tail)."""
        records: List[RunRecord] = []
        for path in self.run_paths(name):
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            prov = payload.get("provenance") or {}
            records.append(RunRecord(
                name=name,
                path=path,
                created_at=payload.get("created_at"),
                git_sha=prov.get("git_sha"),
                code_version=payload.get("code_version"),
                host_fingerprint=prov.get("host_fingerprint"),
                payload=payload,
            ))
        records.sort(key=lambda r: (r.created_at or "", r.path.name))
        if last is not None and last > 0:
            records = records[-last:]
        return records

    def latest(self, name: str) -> Optional[RunRecord]:
        runs = self.runs(name, last=1)
        return runs[-1] if runs else None


def append_history(payload: Mapping[str, Any], history_dir=None,
                   name: Optional[str] = None) -> Optional[pathlib.Path]:
    """The writers' one-liner: append unless history is disabled (None)."""
    if history_dir is None:
        return None
    return HistoryStore(history_dir).append(payload, name=name)


def seed_from_baselines(baseline_dir, history_dir=DEFAULT_HISTORY_DIR) -> List[pathlib.Path]:
    """File every committed ``BENCH_*.json`` baseline as run zero.

    Gives a fresh checkout a non-empty history (so trend verdicts have an
    anchor) without waiting for the first nightly accumulation.  A name
    that already has stored runs is left alone, so re-running the seed on
    a populated store never duplicates run zero.
    """
    store = HistoryStore(history_dir)
    written: List[pathlib.Path] = []
    for path in sorted(pathlib.Path(baseline_dir).glob("BENCH_*.json")):
        payload = json.loads(path.read_text())
        name = str(payload.get("name") or "unnamed")
        if store.run_paths(name):
            continue
        written.append(store.append(payload))
    return written
