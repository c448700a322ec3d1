"""MOST: the optimal (ILP-based) modulo scheduler, and the one optimal
driver it shares with the backend portfolio (:mod:`repro.most.walk`)."""

from .formulation import ScheduleFormulation, build_formulation
from .scheduler import MostOptions, most_pipeline_loop
from .walk import (
    OptimalOptions,
    OptimalResult,
    SolveBudget,
    SolveStats,
    optimal_pipeline_loop,
)

__all__ = [
    "MostOptions",
    "OptimalOptions",
    "OptimalResult",
    "ScheduleFormulation",
    "SolveBudget",
    "SolveStats",
    "build_formulation",
    "most_pipeline_loop",
    "optimal_pipeline_loop",
]
