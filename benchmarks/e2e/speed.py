"""Timings at reference speed: a fixed probe measures the machine's speed.

The shared 2-vCPU VMs this benchmark was built on change speed by up to
1.7x within a minute, so the raw wall times of ten runs of the same code
spread by 0.10-0.26 of their median (inter-quartile), however many rounds
fit in a run.  Every timed call is therefore bracketed by a short probe --
a fixed, benchmark-owned pure-Python graph colouring that touches dicts,
sets and lists much like the pipeliners do -- and reported scaled to the
probe's reference time::

    scaled = raw * REFERENCE_S / mean(probe before, probe after)

A slower machine stretches the call and the probes alike and cancels; a
slower program does not, because the probe runs none of its code.  Over
the same ten runs the scaled compile times spread by 0.03-0.06.  Raw wall
times stay in every run record.
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import time
from typing import Callable, Iterable, Iterator, List

#: What the probe takes on an unloaded machine of the kind the benchmark was
#: built on; it only sets the scale, so scaled times read as seconds there.
REFERENCE_S = 1.4e-3

_N = 300
_rng = random.Random(20240611)
_ADJ: List[set] = [set() for _ in range(_N)]
for _ in range(6 * _N):
    a, b = _rng.randrange(_N), _rng.randrange(_N)
    if a != b:
        _ADJ[a].add(b)
        _ADJ[b].add(a)
_NAMES = [f"v{i}" for i in range(_N)]


def _colour() -> int:
    """Simplify-then-select greedy colouring of the fixed graph."""
    index = {name: i for i, name in enumerate(_NAMES)}
    degree = {name: len(_ADJ[i]) for i, name in enumerate(_NAMES)}
    work = sorted(degree, key=degree.get)
    stack, removed = [], set()
    while work:
        name = min(work[:16], key=degree.get)
        work.remove(name)
        stack.append(name)
        removed.add(name)
        for j in _ADJ[index[name]]:
            if _NAMES[j] not in removed:
                degree[_NAMES[j]] -= 1
    colours: dict = {}
    for name in reversed(stack):
        taken = {colours[_NAMES[j]] for j in _ADJ[index[name]] if _NAMES[j] in colours}
        colours[name] = next(c for c in range(_N) if c not in taken)
    return len(set(colours.values()))


def probe() -> float:
    """Seconds one probe takes right now (garbage collection held off)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _colour()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def scaled(raw: float, before: float, after: float) -> float:
    """``raw`` seconds at reference speed, given the probes around the call."""
    return raw * REFERENCE_S / ((before + after) / 2)


@contextlib.contextmanager
def one_cpu(also: Callable[[], Iterable[int]] = tuple) -> Iterator[None]:
    """Run this process, and every process it starts meanwhile, on one CPU.

    Work done in a child process is timed here, so the probes taken here
    must run on the CPU the child ran on.  On exit this process and the
    pids ``also()`` names (children still alive) get every CPU back.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        for pid in (0, *also()):
            with contextlib.suppress(ProcessLookupError):
                os.sched_setaffinity(pid, cpus)
