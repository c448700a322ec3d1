"""A small integer-linear-programming modelling layer.

The MOST scheduler formulates modulo scheduling as an ILP and hands it "to
one of a number of standard ILP solving packages" (Section 1.2).  This
module is our stand-in for the modelling front of such a package: variables
with bounds and integrality, linear constraints and a linear objective.
It needs no numerical library: the conversion to the sparse arrays the LP
engine consumes lives in :mod:`repro.ilp.solver`, the one module that
loads numpy and scipy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

#: The solve engines: our LP-relaxation branch-and-bound, or HiGHS' MILP.
#: Kept here so option validation needs no solver import.
ENGINES = ("bnb", "scipy")


class Sense(enum.Enum):
    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass(frozen=True)
class Var:
    """A decision variable (identified by its index in the model)."""

    index: int
    name: str
    lb: float
    ub: Optional[float]
    integer: bool


@dataclass
class Constraint:
    coeffs: Dict[int, float]  # var index -> coefficient
    sense: Sense
    rhs: float
    name: str = ""


class Model:
    """An ILP model: variables, constraints, objective."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: List[Var] = []
        self.constraints: List[Constraint] = []
        self.objective: Dict[int, float] = {}
        self.minimize = True

    # ------------------------------------------------------------------
    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: Optional[float] = None,
        integer: bool = False,
        binary: bool = False,
    ) -> Var:
        if binary:
            lb, ub, integer = 0.0, 1.0, True
        var = Var(index=len(self.variables), name=name, lb=lb, ub=ub, integer=integer)
        self.variables.append(var)
        return var

    def add_constraint(
        self,
        coeffs: Dict[Var, float],
        sense: Sense,
        rhs: float,
        name: str = "",
    ) -> Constraint:
        constraint = Constraint(
            coeffs={v.index: c for v, c in coeffs.items() if c != 0.0},
            sense=sense,
            rhs=rhs,
            name=name,
        )
        self.constraints.append(constraint)
        return constraint

    def set_objective(self, coeffs: Dict[Var, float], minimize: bool = True) -> None:
        self.objective = {v.index: c for v, c in coeffs.items()}
        self.minimize = minimize

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def integer_indices(self) -> List[int]:
        return [v.index for v in self.variables if v.integer]

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        return (
            f"Model({self.name}: {self.n_vars} vars, "
            f"{len(self.integer_indices())} integer, "
            f"{len(self.constraints)} constraints)"
        )
