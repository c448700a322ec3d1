"""A golden pin over the CP backend: every answer, node count and witness.

``tests/golden/cp_answers.json`` holds what ``solve_cp`` returned on a
fixed set of formulations before its resource side moved onto the packed
modulo reservation table: the answer, ``nodes``, the witness times and the
``conflicts``/``propagations`` detail.  No run here has a wall-clock
limit, so every number is decided by the search alone and the pin does
not move with machine load.

The formulations:

* every Livermore and recbound kernel at each II from MinII to MinII+2,
  at the default node budget and at ``max_nodes=50`` (node-budget
  ``unknown`` answers are pinned too);
* seeded random loops drawn like the ``generated-cp`` benchmark workload
  (at most one divide), at MinII and MinII+1 with its 2,000-node budget;
  ``cp39`` at MinII+1 ends ``unknown``;
* hand-built formulations: count-2 uses of a 2-unit resource (the
  per-slot count path, self-aliasing uses included, and an op shut out
  by placements that fill no slot) and an op that fits at no slot of its
  II.

Re-record (only after an intended change to an answer)::

    PYTHONPATH=src python tests/test_cp_golden.py --update
"""

from __future__ import annotations

import functools
import json
import pathlib
import random
import sys
from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.core.minii import min_ii
from repro.exec.cells import corpus_loop_keys, resolve_loop
from repro.ir.loop import Loop
from repro.machine.descriptions import r8000
from repro.portfolio.cp import solve_cp
from repro.portfolio.formulation import (
    FormulationArc,
    ModuloFormulation,
    build_modulo_formulation,
)
from repro.workloads.generators import GeneratorConfig, random_spec

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cp_answers.json"

KERNELS: Tuple[str, ...] = (*corpus_loop_keys("livermore"), *corpus_loop_keys("recbound"))
N_RANDOM = 40
#: The node budgets of the kernels: ``solve_cp``'s default and a small one.
KERNEL_BUDGETS: Tuple[Dict[str, int], ...] = ({}, {"max_nodes": 50})
#: The ``generated-cp`` workload's per-probe budget.
RANDOM_BUDGET = {"max_nodes": 2000}
#: One pinned formulation: its id, the formulation and its node budget.
Run = Tuple[str, ModuloFormulation, Dict[str, int]]


@functools.lru_cache(maxsize=None)
def _random_loops() -> Tuple[Loop, ...]:
    """Seeded random bodies from one stream: 4 to 40 compute ops, 1 to 8
    streams, 0 to 3 recurrences, every other one drawn with divides; bodies
    with two or more divides are redrawn, as the ``generated-cp`` workload
    does."""
    rng = random.Random("cp-golden")
    loops = []
    for i in range(N_RANDOM):
        config = GeneratorConfig(
            n_compute=4 + (i * 36) // (N_RANDOM - 1), n_streams=1 + i % 8,
            n_recurrences=i % 4, p_fdiv=0.03 if i % 2 else 0.0, trip_count=100,
        )
        while True:
            spec = random_spec(rng.randrange(2**31), config, name=f"cp{i}")
            if sum(op.kind == "fdiv" for op in spec.ops) <= 1:
                loops.append(spec.build())
                break
    return tuple(loops)


def _hand_built(name: str, ii: int, windows: List[Tuple[int, int]],
                uses: List[List[Tuple[int, str, int]]], availability: Dict[str, int],
                arcs: List[Tuple[int, int, int, int]]) -> ModuloFormulation:
    return ModuloFormulation(
        loop_name=name, n_ops=len(windows), ii=ii, stages=2, horizon=2 * ii,
        windows=windows,
        arcs=[FormulationArc(src, dst, latency, omega) for src, dst, latency, omega in arcs],
        op_uses=uses, availability=availability,
    )


def _count_path(ii: int) -> ModuloFormulation:
    """A 2-unit ``fp`` taken two units at a time: op 0 asks for 2 at issue,
    op 3's uses at offsets 0 and 3 alias into one slot at II 3, and ops 1
    and 2 take one unit each.  At II 3 the demand fills every ``fp`` slot
    exactly; at II 2 it exceeds them."""
    fp1, fp2 = [(0, "issue", 1), (0, "fp", 1)], [(0, "issue", 1), (0, "fp", 2)]
    return _hand_built(
        f"count_path_ii{ii}", ii,
        windows=[(0, 4), (0, 5), (1, 5), (0, 5)],
        uses=[fp2, fp1, fp1, [(0, "issue", 1), (0, "fp", 1), (3, "fp", 1)]],
        availability={"issue": 4, "fp": 2},
        arcs=[(0, 2, 1, 0), (1, 3, 2, 0), (3, 1, 1, 1)],
    )


def _count_shut_out() -> ModuloFormulation:
    """Op 2 needs both ``fp`` units in one slot; ops 0 and 1 take one unit
    of slot 0 and slot 1, filling neither, yet together they leave op 2 no
    slot."""
    return _hand_built(
        "count_shut_out", 2,
        windows=[(0, 0), (1, 1), (0, 1)],
        uses=[[(0, "fp", 1)], [(0, "fp", 1)], [(0, "fp", 2)]],
        availability={"fp": 2},
        arcs=[],
    )


def _no_slot(ii: int) -> ModuloFormulation:
    """Op 2 holds the 1-unit divider for 3 cycles: at II 2 two of its own
    uses share a slot, so it fits at no cycle; at II 3 it fits."""
    return _hand_built(
        f"no_slot_ii{ii}", ii,
        windows=[(0, 1), (1, 2), (0, 5)],
        uses=[[(0, "issue", 1)], [(0, "issue", 1)],
              [(0, "issue", 1)] + [(off, "fpdiv", 1) for off in range(3)]],
        availability={"issue": 1, "fpdiv": 1},
        arcs=[(0, 1, 1, 0), (0, 2, 0, 0)],
    )


def _kernel_runs(key: str) -> Callable[[], List[Run]]:
    def runs() -> List[Run]:
        machine = r8000()
        loop = resolve_loop(key, machine)
        mii = min_ii(loop, machine)
        name = key.split(":", 1)[1]
        return [
            (f"{name}@{ii}/{budget.get('max_nodes', 'default')}",
             build_modulo_formulation(loop, machine, ii), budget)
            for ii in range(mii, mii + 3)
            for budget in KERNEL_BUDGETS
        ]
    return runs


def _random_runs(i: int) -> Callable[[], List[Run]]:
    def runs() -> List[Run]:
        machine = r8000()
        loop = _random_loops()[i]
        mii = min_ii(loop, machine)
        return [
            (f"cp{i}@{ii}", build_modulo_formulation(loop, machine, ii), RANDOM_BUDGET)
            for ii in (mii, mii + 1)
        ]
    return runs


def _hand_runs() -> List[Run]:
    return [
        (f.loop_name, f, {})
        for f in (_count_path(2), _count_path(3), _count_path(4), _count_shut_out(),
                  _no_slot(2), _no_slot(3))
    ]


#: Test id -> the (run id, formulation, budget) triples it pins.
GROUPS: Dict[str, Callable[[], List[Run]]] = {
    **{key.split(":", 1)[1]: _kernel_runs(key) for key in KERNELS},
    **{f"cp{i}": _random_runs(i) for i in range(N_RANDOM)},
    "hand_built": _hand_runs,
}


def answer_summary(formulation: ModuloFormulation, budget: Dict[str, int]) -> Dict[str, Any]:
    answer = solve_cp(formulation, **budget)
    return {
        "answer": answer.answer,
        "nodes": answer.nodes,
        "times": sorted(answer.times.items()) if answer.times is not None else None,
        "detail": answer.detail,
    }


def solve_group(group: str) -> Dict[str, Dict[str, Any]]:
    return {run_id: answer_summary(f, budget) for run_id, f, budget in GROUPS[group]()}


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_pin_covers_every_formulation(golden):
    run_ids = [run_id for group in GROUPS for run_id, _, _ in GROUPS[group]()]
    assert len(run_ids) == len(KERNELS) * 6 + N_RANDOM * 2 + 6
    assert sorted(golden) == sorted(run_ids)


def test_the_pin_holds_a_budget_stop_and_the_hand_built_paths(golden):
    assert golden["cp39@23"]["answer"] == "unknown"
    assert golden["cp39@23"]["nodes"] == RANDOM_BUDGET["max_nodes"]
    assert golden["no_slot_ii2"]["answer"] == "unsat"
    assert golden["count_path_ii2"]["answer"] == "unsat"
    assert golden["count_path_ii3"]["answer"] == "sat"


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_cp_reproduces_the_golden_pin(group, golden):
    # JSON round trip: the witness's (op, cycle) tuples become lists.
    got = json.loads(json.dumps(solve_group(group)))
    assert got == {run_id: golden[run_id] for run_id in got}


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(f"usage: {sys.argv[0]} --update")
    GOLDEN.parent.mkdir(exist_ok=True)
    pinned = {run_id: pin for group in GROUPS for run_id, pin in solve_group(group).items()}
    # One formulation per line, so a re-record diffs answer by answer.
    lines = [
        f"{json.dumps(key)}: {json.dumps(pinned[key], sort_keys=True)}" for key in sorted(pinned)
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"pinned {len(pinned)} formulations in {GOLDEN}")
