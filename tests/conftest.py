"""Shared fixtures: small loop kernels used across the test suite."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro

from repro.ir import LoopBuilder
from repro.machine import r8000, single_issue, two_wide

from . import verified_drivers


def pytest_configure(config):
    # Registered in pyproject.toml too; repeated here so the marker exists
    # even when the suite runs without the project's ini options.
    config.addinivalue_line(
        "markers",
        "fuzz: fuzzing-engine sessions (bounded; run with -m fuzz)",
    )
    # Before collection: every schedule a test produces through a driver
    # is independently verified; an ERROR fails it with VerificationError.
    verified_drivers.install()


#: The repository's shared result cache, which ``repro bench`` and its
#: views default to.
SHARED_CACHE = pathlib.Path(__file__).resolve().parent.parent / ".exec-cache"


@pytest.fixture(scope="session", autouse=True)
def _private_grid_state(tmp_path_factory):
    """Tier-1 reads and writes nothing the command line shares between runs.

    Opening the shared result cache fails the test: one that runs the grid
    passes ``--no-cache`` or a ``tmp_path`` cache, since a cached success
    would answer a monkeypatched crash.  The BENCH json a view of the grid
    writes to bench's default output directory lands in a temporary one.
    """
    from repro.exec import cache
    from repro.obs import export

    real_init = cache.ScheduleCache.__init__

    def guarded_init(self, directory=cache.DEFAULT_CACHE_DIR):
        if pathlib.Path(directory).resolve() == SHARED_CACHE:
            raise AssertionError(f"a test opened the shared result cache {directory}")
        real_init(self, directory)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cache.ScheduleCache, "__init__", guarded_init)
        patch.setattr(export, "DEFAULT_OUTPUT_DIR", tmp_path_factory.mktemp("bench-output"))
        yield


@pytest.fixture
def machine():
    return r8000()


@pytest.fixture
def tiny_machine():
    return single_issue()


@pytest.fixture
def mid_machine():
    return two_wide()


def build_sdot(machine, trip_count=1000):
    """Single-precision dot product: the alvinn-style memory-bound kernel."""
    b = LoopBuilder("sdot", machine=machine, trip_count=trip_count)
    s = b.recurrence("s")
    x = b.load("x", offset=0, stride=4, width=4)
    y = b.load("y", offset=0, stride=4, width=4)
    t = b.fmul(x, y)
    s.close(b.fadd(t, s.use()))
    b.live_out_value(s)
    return b.build()


def build_daxpy(machine, trip_count=100):
    """y[i] = a * x[i] + y[i] — no recurrence, one store."""
    b = LoopBuilder("daxpy", machine=machine, trip_count=trip_count)
    a = b.invariant("a")
    x = b.load("x", offset=0, stride=8)
    y = b.load("y", offset=0, stride=8)
    r = b.fmadd(a, x, y)
    b.store("y", r, offset=0, stride=8)
    return b.build()


def build_first_diff(machine, trip_count=100):
    """x[i] = y[i+1] - y[i] (Livermore kernel 12 shape): shared stream."""
    b = LoopBuilder("first_diff", machine=machine, trip_count=trip_count)
    y1 = b.load("y", offset=8, stride=8)
    y0 = b.load("y", offset=0, stride=8)
    d = b.fsub(y1, y0)
    b.store("x", d, offset=0, stride=8)
    return b.build()


def build_recurrence_chain(machine, trip_count=100):
    """x[i] = z[i] * (y[i] - x[i-1]): a tight first-order recurrence."""
    b = LoopBuilder("rec1", machine=machine, trip_count=trip_count)
    x = b.recurrence("x")
    z = b.load("z", offset=0, stride=8)
    y = b.load("y", offset=0, stride=8)
    d = b.fsub(y, x.use())
    x.close(b.fmul(z, d))
    b.store("x_arr", x, offset=0, stride=8)
    b.live_out_value(x)
    return b.build()


def build_memory_heavy(machine, trip_count=100, n_streams=6):
    """Many independent even-aligned double streams: bank-pairing rich."""
    b = LoopBuilder("memheavy", machine=machine, trip_count=trip_count)
    acc = b.recurrence("acc")
    total = None
    for k in range(n_streams):
        v = b.load("arr", offset=16 * k, stride=16 * n_streams // 2)
        total = v if total is None else b.fadd(total, v)
    acc.close(b.fadd(total, acc.use(distance=2)))
    b.live_out_value(acc)
    return b.build()


def build_divider(machine, trip_count=100):
    """Loop with an unpipelined divide: exercises folding and blocking."""
    b = LoopBuilder("divloop", machine=machine, trip_count=trip_count)
    x = b.load("x", offset=0, stride=8)
    y = b.load("y", offset=0, stride=8)
    q = b.fdiv(x, y)
    r = b.fadd(q, b.invariant("c"))
    b.store("out", r, offset=0, stride=8)
    return b.build()


@pytest.fixture
def sdot(machine):
    return build_sdot(machine)


@pytest.fixture
def daxpy(machine):
    return build_daxpy(machine)


@pytest.fixture
def first_diff(machine):
    return build_first_diff(machine)


@pytest.fixture
def rec1(machine):
    return build_recurrence_chain(machine)


@pytest.fixture
def memheavy(machine):
    return build_memory_heavy(machine)


@pytest.fixture
def divloop(machine):
    return build_divider(machine)


@pytest.fixture
def repro_copy(tmp_path, monkeypatch):
    """A copy of the ``repro`` sources that every cache key is taken from
    while the test runs; the code that runs stays the original."""
    import shutil

    from repro.exec import hashing

    root = tmp_path / "repro"
    shutil.copytree(hashing._ROOT, root, ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(hashing, "_ROOT", root)
    yield root
    hashing.closure_digest.cache_clear()


def edit_source(path, text="\n# edited\n"):
    """Append ``text`` to a source file; returns what it held before."""
    original = path.read_bytes()
    path.write_bytes(original + text.encode())
    return original


def run_fresh(script: str) -> dict:
    """Run ``script`` in a fresh interpreter; its last stdout line is JSON."""
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])
