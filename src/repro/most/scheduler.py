"""The MOST driver: optimal modulo scheduling via ILP with fallbacks.

Mirrors the adjusted McGill methodology of Section 3.3:

1. a *resource-constrained* schedule is sought first (the integrated
   register-optimal formulation was too slow to be usable);
2. a second solve minimises *buffers* — iteration overlap — under a time
   limit, accepting the best suboptimal solution found;
3. the solver's branch order follows the same multiple priority-order
   heuristics as the SGI pipeliner, tried in turn until one solves;
4. the heuristic pipeliner backs the whole thing up (Section 4.4): not
   every loop the SGI pipeliner schedules is reachable by MOST in
   reasonable time.

MOST is the one optimal driver (:func:`~repro.most.walk.optimal_pipeline_loop`)
under its default set: the ILP alone, one probe entry per SGI production
order over the II's one encoding (one unordered entry on HiGHS), then the
buffer re-solve.
"""

from __future__ import annotations

from typing import Optional

from ..core.driver import PipelineResult
from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription
from .walk import OptimalOptions, optimal_pipeline_loop


class MostOptions(OptimalOptions):
    """MOST's default set: the :class:`OptimalOptions` defaults."""


def most_pipeline_loop(
    loop: Loop,
    machine: Optional[MachineDescription] = None,
    options: Optional[OptimalOptions] = None,
) -> PipelineResult:
    """Schedule ``loop`` with the ILP pipeliner, falling back to heuristics."""
    return optimal_pipeline_loop(loop, machine, options or MostOptions(), tag="most")
