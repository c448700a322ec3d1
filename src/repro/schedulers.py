"""The scheduler registry: every pipeliner, run by name through one table.

Each entry maps a scheduler name to its options parser
(``options_from_dict``: the JSON/cell form, unknown keys rejected) and its
driver (``run(loop, machine, options, verify)``).  Every driver's result
exposes one read surface — ``success``, ``schedule``, ``allocation``,
``loop``, ``ii``, ``min_ii``, ``optimal``, ``fallback_used``,
``fallback_result``, ``spill_rounds`` and ``stats.seconds`` — so callers
read fields instead of branching on the scheduler name.

``baseline`` (the sequential list scheduler) is not an entry: it produces
no modulo schedule, and the exec runner handles it as its one special case.

Entries resolve their module attributes at call time: importing the
registry loads no solver, and a driver rebound on its defining module (by
a tracer or a test) is what every caller runs.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional


@dataclass(frozen=True)
class Scheduler:
    """One registered pipeliner: where its options class and driver live."""

    name: str
    module: str
    options_class: str
    driver: str

    def _attr(self, name: str) -> Any:
        return getattr(importlib.import_module(self.module, __package__), name)

    def options_from_dict(self, data: Mapping[str, Any]) -> Any:
        """The driver's options from a JSON-style mapping; ``ValueError``
        on an unknown key."""
        return self._attr(self.options_class).from_dict(data)

    def run(self, loop: Any, machine: Any, options: Any, verify: Optional[bool] = None) -> Any:
        """Pipeline ``loop`` with this scheduler's driver."""
        return self._attr(self.driver)(loop, machine, options, verify=verify)


REGISTRY: Dict[str, Scheduler] = {
    entry.name: entry
    for entry in (
        Scheduler("sgi", ".core.driver", "PipelinerOptions", "pipeline_loop"),
        Scheduler("most", ".most.scheduler", "MostOptions", "most_pipeline_loop"),
        Scheduler("rau", ".rau.scheduler", "RauOptions", "rau_pipeline_loop"),
        Scheduler(
            "portfolio", ".portfolio.driver", "PortfolioOptions", "portfolio_pipeline_loop"
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
