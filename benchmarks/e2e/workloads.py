"""The four workloads: which loops, which pipeliner, which options.

``--seed`` drives every random choice here (cell order, ``Cell.seed``,
generated loop bodies, arrival times); the program only ever sees the
generated inputs.  Each workload's reasons, and the measured reasons for
what it leaves out, are in this directory's README.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.exec.cells import Cell, corpus_loop_keys
from repro.workloads.generators import GeneratorConfig, random_spec
from repro.workloads.mutate import LoopSpec, spec_to_token

BATCH_WORKLOADS = ("corpus-sgi", "corpus-most", "generated-cp")
WORKLOADS = BATCH_WORKLOADS + ("serve-open",)

#: MOST on HiGHS, bounded per solve by a node count: ``time_limit`` is only
#: the backstop a valid run never reaches.
MOST_OPTIONS = {"engine": "scipy", "max_nodes": 2000, "max_ops": 61, "time_limit": 60}
#: Its ILP stops on the wall clock under these options (one 15 s solve slice
#: used up, 32 s for the loop), so its time would measure the budget.
MOST_EXCLUDED = ("livermore:lk08_adi",)
#: CP alone (no cross-check), with a node budget small enough that no probe
#: ever reaches the portfolio's wall-clock backstop.
CP_OPTIONS = {"backends": "cp", "max_nodes": 2000}
GENERATED_LOOPS = 150
MAX_DIVIDES = 1
#: A cell deadline far above any measured cell: reaching it is a run error.
CELL_TIMEOUT = 120.0

#: Seconds one round took on a 2-vCPU x86 VM; ``rounds()`` sizes a run's
#: work from ``--seconds`` with them, so every run of a workload does the
#: same work however fast the machine happens to be.
NOMINAL_ROUND_S = {"corpus-sgi": 8.0, "corpus-most": 10.0, "generated-cp": 4.5}

#: serve-open traffic: open-loop Poisson arrivals, hot share, connections.
SERVE_RATE = 25.0
SERVE_HOT_SHARE = 0.9
SERVE_CONNECTIONS = 2


def rounds(workload: str, seconds: float) -> int:
    """Rounds per run: as many nominal rounds as fit in ``seconds``, at least 2
    (the cross-round quality check needs two)."""
    return max(2, int(seconds // NOMINAL_ROUND_S[workload]))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def corpus_keys() -> List[str]:
    """The 58 committed loops: 24 Livermore, 28 SPEC92, 6 recbound."""
    return [key for corpus in ("livermore", "spec92", "recbound")
            for key in corpus_loop_keys(corpus)]


def most_keys() -> List[str]:
    """The Livermore kernels MOST runs on (the paper's Figure 6 set)."""
    return [key for key in corpus_loop_keys("livermore") if key not in MOST_EXCLUDED]


def generated_specs(seed: int, n: int = GENERATED_LOOPS) -> List[LoopSpec]:
    """``n`` random loops in a stratified design.

    Each shape parameter takes its values in fixed proportions (the seed
    only shuffles which loop gets which), so the workload's aggregate cost
    and quality move little from seed to seed while every loop body is new.
    """
    rng = _rng("generated-cp", seed)

    def column(values: List[Any]) -> List[Any]:
        out = [values[i % len(values)] for i in range(n)]
        rng.shuffle(out)
        return out

    compute = column([4 + round(i * 36 / max(1, n - 1)) for i in range(n)])
    streams = column(list(range(1, 9)))
    recurrences = column([0, 1, 2, 3])
    fdiv = column([0.0, 0.03])
    trips = column([16, 100, 512])
    specs = []
    for i in range(n):
        config = GeneratorConfig(n_compute=compute[i], n_streams=streams[i],
                                 n_recurrences=recurrences[i], p_fdiv=fdiv[i],
                                 trip_count=trips[i])
        while True:
            spec = random_spec(rng.randrange(2**31), config, name=f"gen{seed}_{i}")
            # Two or more divides make the unpipelined divider bind MinII,
            # where CP tends to answer "unknown" at every II: one 3-divide
            # loop alone took 1.7 s of a 4.0 s round.  Those bodies are
            # redrawn, so seeds stay comparable.
            if sum(op.kind == "fdiv" for op in spec.ops) <= MAX_DIVIDES:
                specs.append(spec)
                break
    return specs


def cell(key: str, scheduler: str, options: Dict[str, Any], seed: int) -> Cell:
    """A workload cell: oracle and certified bounds on, generous deadline."""
    return Cell.make(key, scheduler, options, seed=seed, timeout=CELL_TIMEOUT,
                     oracle=True, analyze=True)


def batch_cells(workload: str, seed: int, limit: Optional[int] = None) -> List[Cell]:
    """The cells of one round, in the seed's order (``limit`` keeps a prefix of
    the canonical list, for quick self-tests)."""
    if workload == "generated-cp":
        keys = ["fuzz:" + spec_to_token(spec) for spec in generated_specs(seed)]
        scheduler, options = "portfolio", CP_OPTIONS
    elif workload == "corpus-most":
        keys, scheduler, options = most_keys(), "most", MOST_OPTIONS
    elif workload == "corpus-sgi":
        keys, scheduler, options = corpus_keys(), "sgi", {}
    else:
        raise ValueError(f"{workload!r} is not a batch workload")
    keys = keys[:limit]
    _rng(workload, seed).shuffle(keys)
    return [cell(key, scheduler, options, seed) for key in keys]


def setup_cell(workload: str) -> Cell:
    """The fixed small cell a fresh interpreter runs to time set-up."""
    scheduler, options = {
        "corpus-sgi": ("sgi", {}),
        "corpus-most": ("most", MOST_OPTIONS),
        "generated-cp": ("portfolio", CP_OPTIONS),
    }[workload]
    return cell("livermore:lk01_hydro", scheduler, options, 0)


@dataclass(frozen=True)
class Arrival:
    """One open-loop request: when it is due (seconds from the start) and what."""

    due: float
    request: Dict[str, Any]


def serve_request(key: str, seed: int, **fields: Any) -> Dict[str, Any]:
    """A schedule request for a registry key or a ``fuzz:`` spec token."""
    loop = {"spec": key[5:]} if key.startswith("fuzz:") else {"loop": key}
    return {"op": "schedule", "scheduler": "sgi", "oracle": True, "seed": seed,
            "budget": CELL_TIMEOUT, **loop, **fields}


def serve_schedule(seed: int, seconds: float, hot_keys: List[str]) -> List[Arrival]:
    """A seeded open-loop arrival schedule of ``SERVE_RATE * seconds`` requests.

    Arrival times are those of a Poisson process conditioned on its count
    (sorted uniform draws), so every run sends the same number of requests
    and its tail percentile keeps the same level.  Hot requests repeat the
    warmed corpus keys; the rest are fresh 4-16-op loops that miss the cache.
    """
    rng = _rng("serve-open", seed)
    n = max(1, round(SERVE_RATE * seconds))
    times = sorted(rng.uniform(0.0, seconds) for _ in range(n))
    out: List[Arrival] = []
    for i, due in enumerate(times):
        if rng.random() < SERVE_HOT_SHARE:
            key = rng.choice(hot_keys)
        else:
            spec = random_spec(
                rng.randrange(2**31),
                GeneratorConfig(n_compute=rng.randint(4, 16), n_streams=rng.randint(1, 4),
                                n_recurrences=rng.randint(0, 2), p_fdiv=0.0),
                name=f"miss{seed}_{i}",
            )
            key = "fuzz:" + spec_to_token(spec)
        out.append(Arrival(due, serve_request(key, seed, id=f"o{i}")))
    return out
