"""Integer linear programming substrate: model builder and MILP solvers.

The model layer is plain Python; the solver names load
:mod:`repro.ilp.solver`, and with it numpy and scipy, on first use.
"""

from .model import Constraint, Model, Sense, Var

_SOLVER_NAMES = ("MILPResult", "SolverOptions", "Status", "solve_milp")

__all__ = [
    "Constraint",
    "MILPResult",
    "Model",
    "Sense",
    "SolverOptions",
    "Status",
    "Var",
    "solve_milp",
]


def __getattr__(name: str):
    if name in _SOLVER_NAMES:
        from . import solver

        return getattr(solver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
