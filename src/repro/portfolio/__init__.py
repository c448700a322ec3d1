"""A portfolio of optimal modulo-scheduling backends over one formulation.

The paper's "optimal" side of the showdown is a single time-indexed ILP
(MOST, Section 3).  Its direct successors swapped the decision procedure
but kept the question: Roorda's SMT-solver modulo scheduling
(arXiv 2601.21842) encodes the same windows and modulo resource rows in
difference logic; the combinatorial-scheduling survey of Castañeda Lozano
& Schulte (arXiv 1409.7628) catalogues CP propagation over the identical
structure.  This package makes that literal: one backend-neutral
:class:`~repro.portfolio.formulation.ModuloFormulation` extracted from the
MOST model builder, and interchangeable decision procedures behind it —

* ``ilp`` — the existing time-indexed ILP (:mod:`repro.ilp`);
* ``cp``  — a pure-python CP solver: window propagation, modulo-resource
  filtering, conflict-driven chronological search (always available);
* ``smt`` — a difference-logic encoding for Z3, optional-dependency-gated
  and skipped cleanly when ``z3-solver`` is absent.

:func:`~repro.portfolio.driver.portfolio_pipeline_loop` is the one
optimal driver (:func:`~repro.most.walk.optimal_pipeline_loop`, which MOST
runs too) under the portfolio's default set: it races the registered
backends per (loop, II) under one shared
:class:`~repro.most.walk.SolveBudget` and takes the first definitive
sat/unsat answer.  Because every backend answers the *same* formulation,
any disagreement is a soundness bug in one of them — the cross-backend
agreement oracle (``repro.fuzz`` layer ``agreement``) turns that into a
standing differential test.

Only the leaf modules (formulation, answer) are imported eagerly;
driver-level names resolve lazily so :mod:`repro.most` can import the
neutral formulation and the backends without pulling the portfolio's
default set back in (no import cycle).
"""

from .answer import BackendAnswer, ProbeRecord, probe_disagreements
from .formulation import ModuloFormulation, build_modulo_formulation, check_witness

__all__ = [
    "BackendAnswer",
    "ModuloFormulation",
    "PortfolioOptions",
    "ProbeRecord",
    "available_backend_names",
    "build_modulo_formulation",
    "check_witness",
    "portfolio_pipeline_loop",
    "probe_disagreements",
    "smt_available",
]

_LAZY = {
    "PortfolioOptions": "driver",
    "available_backend_names": "driver",
    "portfolio_pipeline_loop": "driver",
    "smt_available": "smt",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
