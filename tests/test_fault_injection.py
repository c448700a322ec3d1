"""Kill a writer mid-publish: nothing corrupt may be readable afterwards.

Each case runs one store write in a child process that dies at the worst
moment — after the bytes are written but before the rename publishes
them, or inside the write itself (a file-size limit, so the kernel kills
it with ``SIGXFSZ``) — and then reads the store back from this process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.exec.cache import ScheduleCache
from repro.obs.history import HistoryStore

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Child-side fault, armed after every import and just before the write.
#: (Python ignores ``SIGXFSZ``; the default action kills the process.)
FAULTS = {
    "before-rename": "os.replace = lambda *args: os._exit(9)",
    "mid-write": "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096)); "
                 "signal.signal(signal.SIGXFSZ, signal.SIG_DFL)",
}

#: Large enough that the mid-write fault cuts it short.
BLOB = "x" * 20000


def _die_writing(fault: str, setup: str, write: str) -> None:
    code = "\n".join([
        "import os, resource, signal",
        textwrap.dedent(setup),
        FAULTS[fault],
        textwrap.dedent(write),
    ])
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0, "the writer was meant to die mid-publish"


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_killed_cache_write_is_a_miss_and_its_temp_file_is_pruned(tmp_path, fault):
    key = "ab" * 32
    _die_writing(
        fault,
        f"""
        from repro.exec.cache import ScheduleCache
        cache = ScheduleCache({str(tmp_path)!r})
        """,
        f"cache.put({key!r}, {{'blob': {BLOB!r}}})",
    )
    cache = ScheduleCache(tmp_path)
    assert cache.get(key) is None
    assert cache.entry_count() == 0
    assert cache.prune(max_bytes=1 << 30, max_tmp_age=0)["tmp_removed"] == 1
    assert not list(tmp_path.glob("*/*/*.tmp"))


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_killed_history_append_leaves_no_partial_record(tmp_path, fault):
    store = HistoryStore(tmp_path)
    first = store.append({
        "name": "pipeline", "created_at": "2026-01-01T00:00:00+00:00",
        "cells": [], "provenance": {"git_sha": "a" * 40},
    })
    _die_writing(
        fault,
        f"""
        from repro.obs.history import HistoryStore
        store = HistoryStore({str(tmp_path)!r})
        """,
        f"""
        store.append({{
            "name": "pipeline", "created_at": "2026-01-02T00:00:00+00:00",
            "cells": [], "blob": {BLOB!r}, "provenance": {{"git_sha": "b" * 40}},
        }})
        """,
    )
    assert [run.path for run in store.runs("pipeline")] == [first]
    # No half-written record under a record's name, and an intact index.
    for path in store.run_paths("pipeline"):
        json.loads(path.read_text())
    index = json.loads((tmp_path / "pipeline" / "index.json").read_text())
    assert [run["file"] for run in index["runs"]] == [first.name]
    # The dead writer's temp file is left behind, where no reader looks.
    assert len(list((tmp_path / "pipeline").glob("*.tmp"))) == 1
