"""MOST: the optimal (ILP-based) modulo scheduler, and the II walk it
shares with the backend portfolio (:mod:`repro.most.walk`)."""

from .formulation import ScheduleFormulation, build_formulation
from .scheduler import MostOptions, most_pipeline_loop
from .walk import OptimalResult, SolveBudget, SolveStats

__all__ = [
    "MostOptions",
    "OptimalResult",
    "ScheduleFormulation",
    "SolveBudget",
    "SolveStats",
    "build_formulation",
    "most_pipeline_loop",
]
