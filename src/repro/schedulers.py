"""The scheduler registry: every pipeliner, run by name through one table.

Each entry maps a scheduler name to its options parser
(``options_from_dict``: the JSON/cell form, unknown keys rejected) and its
driver (``run(loop, machine, options)``).  Every driver's result
exposes one read surface — ``success``, ``schedule``, ``allocation``,
``loop``, ``ii``, ``min_ii``, ``optimal``, ``fallback_used``,
``fallback_result``, ``spill_rounds`` and ``stats.seconds`` — so callers
read fields instead of branching on the scheduler name.  The two optimal
entries, ``most`` and ``portfolio``, run one driver
(:func:`repro.most.walk.optimal_pipeline_loop`) under two default sets of
one options class (``MostOptions``, ``PortfolioOptions``), so both accept
every optimal-driver field and an override reaches both alike.

Each entry also declares its option presets: a plain mapping from preset
name to the options dict its cells run under (no solver is imported to
declare them).  A preset an entry does not declare runs the driver's
defaults, ``{}``.  Every command reads its options here, through
:meth:`Scheduler.preset`, so a new pipeliner joins every grid with one
entry:

``paper``   the experiment runner's figures (§4): MOST on HiGHS;
``bench``   the timed corpus grid (``repro bench``, ``repro serve --selftest``);
``quick``   ``bench --quick``, which ``verify``, ``explain`` and ``analyze``
            read: MOST's node budget halved;
``fuzz``    the differential fuzzer: native-or-nothing, small budgets, MOST
            on its own B&B engine.

``baseline`` (the sequential list scheduler) is not an entry: it produces
no modulo schedule, and the exec runner handles it as its one special case.

Entries resolve their module attributes at call time: importing the
registry loads no solver, and a driver rebound on its defining module (by
a tracer or a test) is what every caller runs.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

#: Every preset name an entry may declare.
PRESETS = ("paper", "bench", "quick", "fuzz")


@dataclass(frozen=True)
class Scheduler:
    """One registered pipeliner: where its options class and driver live."""

    name: str
    module: str
    options_class: str
    driver: str
    presets: Mapping[str, Mapping[str, Any]] = field(default_factory=dict, compare=False)

    def _attr(self, name: str) -> Any:
        return getattr(importlib.import_module(self.module, __package__), name)

    def options_from_dict(self, data: Mapping[str, Any]) -> Any:
        """The driver's options from a JSON-style mapping; ``ValueError``
        on an unknown key."""
        return self._attr(self.options_class).from_dict(data)

    def run(self, loop: Any, machine: Any, options: Any) -> Any:
        """Pipeline ``loop`` with this scheduler's driver."""
        return self._attr(self.driver)(loop, machine, options)

    def preset(self, name: str, **overrides: Any) -> Dict[str, Any]:
        """The options dict of preset ``name`` with ``overrides`` on top;
        ``ValueError`` on an unknown preset."""
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r} (expected one of {', '.join(PRESETS)})")
        return {**self.presets.get(name, {}), **overrides}


#: MOST on the bench grid.  The ILP budget is primarily the *node* limit:
#: node-limited solves stop at identical search states regardless of
#: machine load, so ``--jobs 1`` and ``--jobs N`` emit identical schedules.
#: The wall budget is a generous backstop, and the cell timeout the hard one.
_MOST_BENCH = {"time_limit": 20.0, "engine": "scipy", "max_ops": 61, "max_nodes": 4000}

#: The portfolio on the bench grid, in cross-check mode: every backend
#: answers every (loop, II) probe, so the BENCH json carries the full
#: agreement trail (and per-backend solve seconds), not just the race winner.
_PORTFOLIO_BENCH = {
    "time_limit": 20.0, "backends": "cp,ilp", "max_ops": 61, "max_nodes": 20_000,
    "cross_check": True,
}

#: The fuzzer's budget, shared by both optimal drivers: native-or-nothing
#: (a rescued result would only shadow the sgi cell), node-limited and
#: small so throughput stays high.
_FUZZ = {"fallback": False, "time_limit": 1.0, "max_nodes": 2000, "max_ops": 64}


REGISTRY: Dict[str, Scheduler] = {
    entry.name: entry
    for entry in (
        Scheduler("sgi", ".core.driver", "PipelinerOptions", "pipeline_loop"),
        Scheduler(
            "most", ".most.scheduler", "MostOptions", "most_pipeline_loop",
            presets={
                # The largest optimal schedule the study found has 61 ops.
                "paper": {"engine": "scipy", "max_ops": 61},
                "bench": _MOST_BENCH,
                "quick": {**_MOST_BENCH, "max_nodes": 2000},
                # The B&B engine, so ilp.* counters feed the fuzzer's coverage.
                "fuzz": {**_FUZZ, "engine": "bnb"},
            },
        ),
        Scheduler("rau", ".rau.scheduler", "RauOptions", "rau_pipeline_loop"),
        Scheduler(
            "portfolio", ".portfolio.driver", "PortfolioOptions", "portfolio_pipeline_loop",
            presets={
                "bench": _PORTFOLIO_BENCH,
                "quick": _PORTFOLIO_BENCH,
                # Cross-check on: every backend answers every II probe,
                # the agreement oracle's food.
                "fuzz": {**_FUZZ, "backends": "cp,ilp", "cross_check": True},
            },
        ),
    )
}


def get_scheduler(name: str) -> Scheduler:
    """The registry entry for ``name``; ``ValueError`` when there is none."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r} (expected one of {', '.join(REGISTRY)})"
        ) from None


def without_harness_keys(options: Mapping[str, Any]) -> Dict[str, Any]:
    """A cell's options without its ``_test_*`` harness hooks, which the
    exec runner consumes itself and no driver accepts."""
    return {k: v for k, v in options.items() if not k.startswith("_test_")}
