"""Run provenance: who/what/where stamps for every BENCH_*.json.

``created_at`` alone cannot attribute a measurement to a commit, a
machine, or a toolchain — the three inputs a longitudinal time series
must control for before a trend verdict means anything.  Every bench
writer (the pipeline grid, the service load harness, the hot-path
microbenches) stamps :func:`provenance` into its payload, and the
run-history store (:mod:`repro.obs.history`) files records under the
git SHA so a step change in a metric series can be pinned to the commit
range that introduced it.

The hostname is deliberately fingerprinted (salted-free sha256, 12 hex
chars) rather than recorded raw: the records are committed/uploaded as
CI artifacts and need to distinguish machines, not identify them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.metadata
import pathlib
import platform
import socket
import subprocess
from typing import Any, Dict, Optional


@functools.lru_cache(maxsize=1)
def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The HEAD commit of the enclosing checkout, or ``None`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or str(pathlib.Path(__file__).resolve().parent),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and len(sha) == 40 else None


@functools.lru_cache(maxsize=1)
def host_fingerprint() -> str:
    """A stable 12-hex-char machine id that does not leak the hostname."""
    raw = f"{socket.gethostname()}|{platform.machine()}|{platform.system()}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:12]


def _scipy_version() -> Optional[str]:
    """The installed scipy's version, read from its package metadata so
    stamping a payload does not load scipy itself."""
    try:
        return importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance() -> Dict[str, Any]:
    """The provenance block stamped into every BENCH payload."""
    return {
        "git_sha": git_sha(),
        "host_fingerprint": host_fingerprint(),
        "python_version": platform.python_version(),
        "scipy_version": _scipy_version(),
        "platform": platform.platform(),
    }


def stamp(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Attach the provenance block to ``payload`` in place (and return it)."""
    payload["provenance"] = provenance()
    return payload
