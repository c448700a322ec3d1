"""The portfolio driver: race the registered backends per (loop, II).

The portfolio is the one optimal driver
(:func:`~repro.most.walk.optimal_pipeline_loop`) under its default set:
its probe entries are a sequence of backends — CP propagation, the
time-indexed ILP branching on the first SGI production order, optionally
Z3 — each answering the *neutral* formulation under the walk's one
:class:`~repro.most.walk.SolveBudget`.  The first definitive sat/unsat
wins; ``cross_check`` mode instead queries *every* backend and records the
full probe trail, which is what the cross-backend agreement oracle audits.

Budget discipline (the single-owner invariant) lives in
:func:`~repro.most.walk.probe_ii`: every backend invocation asks the
shared budget for its slice, a slice can never exceed what remains, and a
backend overshooting its granted slice by more than the enforcement slack
raises :class:`~repro.most.walk.BudgetOverrun` — racing backends cannot
over-spend the loop's budget no matter how many are registered.

Per-backend effort lands in ``repro.obs`` counters
(``portfolio.<backend>.seconds``, ``.sat``, ``.unsat``, ``.unknown``,
``.nodes``), so traced bench runs aggregate solver effort per backend in
BENCH_pipeline.json.
"""

from __future__ import annotations

import functools
from typing import Optional

from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription
from ..most.walk import (
    OptimalOptions,
    OptimalResult,
    available_backend_names,
    optimal_pipeline_loop,
)

__all__ = ["PortfolioOptions", "available_backend_names", "portfolio_pipeline_loop"]


class PortfolioOptions(OptimalOptions):
    """The portfolio's default set: CP then the ILP on its first branch
    order, 20 s per loop, no stage 2.  The race leaves ``smt`` out on
    purpose: z3's budget is wall-clock only, so letting it decide results
    would make committed benchmarks machine-dependent; cross-check lanes
    and the CI z3 matrix opt it in explicitly."""

    __init__ = functools.partialmethod(
        OptimalOptions.__init__,
        time_limit=20.0, backends="cp,ilp", objective=None, branch_orders=1,
    )


def portfolio_pipeline_loop(
    loop: Loop,
    machine: Optional[MachineDescription] = None,
    options: Optional[OptimalOptions] = None,
) -> OptimalResult:
    """Schedule ``loop`` with the backend portfolio, falling back to heuristics."""
    return optimal_pipeline_loop(
        loop, machine, options or PortfolioOptions(), tag="portfolio"
    )
