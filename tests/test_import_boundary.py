"""Import boundaries: each process loads only the code it runs.

numpy and scipy load only in processes that solve an ILP.
:mod:`repro.ilp.solver` is the one module that imports them.  The lint
below holds that line over the source tree; the subprocess tests check
its effect in fresh interpreters (this suite has long since loaded scipy
itself): SGI and CP cells never load the solver stack, an ILP cell does,
and every optimal driver loads it before its wall-clock budget starts.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
from typing import Optional

import pytest

import repro
from repro.obs.provenance import _scipy_version

from .conftest import run_fresh

SRC = pathlib.Path(repro.__file__).resolve().parent
BOUNDARY = SRC / "ilp" / "solver.py"
NATIVE = ("numpy", "scipy")


def _imported_roots(node: ast.AST):
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        return [node.module.split(".")[0]]
    return []


def test_only_the_solver_module_imports_numpy_or_scipy():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path == BOUNDARY:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(SRC.parent)}:{node.lineno}"
            for node in ast.walk(tree)
            if any(root in NATIVE for root in _imported_roots(node))
        ]
    assert not found, "numpy/scipy imported outside repro/ilp/solver.py: " + ", ".join(found)


def test_scipy_version_is_read_without_importing_scipy():
    import scipy

    assert _scipy_version() == scipy.__version__


def test_sgi_and_cp_cells_never_load_numpy_or_scipy():
    report = run_fresh("""
        import json, sys
        import repro, repro.__main__, repro.serve
        from repro.exec.cells import Cell
        from repro.exec.runner import execute_cell
        from repro.obs.provenance import provenance

        def native():
            return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))

        def run(scheduler, options):
            cell = Cell.make("livermore:lk01_hydro", scheduler, options,
                             oracle=True, analyze=True)
            result = execute_cell(cell.to_dict(), in_worker=False)
            return result["error"], result["ii"]

        out = {"import": native()}
        out["provenance_scipy"] = provenance()["scipy_version"]
        out["sgi"] = run("sgi", {})
        out["cp"] = run("portfolio", {"backends": "cp", "time_limit": 5.0})
        out["after_heuristic"] = native()
        out["most"] = run("most", {"engine": "scipy", "time_limit": 20.0})
        out["scipy_after_most"] = "scipy.optimize" in sys.modules
        print(json.dumps(out))
    """)
    assert report["import"] == []
    assert report["provenance_scipy"]
    for name in ("sgi", "cp", "most"):
        error, ii = report[name]
        assert error is None and ii is not None, (name, error)
    assert report["after_heuristic"] == []
    assert report["scipy_after_most"]


#: The packages whose inits re-export their submodules' names lazily.
LAZY_PACKAGES = ("repro", "repro.exec", "repro.obs", "repro.serve", "repro.fuzz",
                 "repro.workloads")


def test_package_import_loads_no_subpackage_until_asked():
    report = run_fresh(f"""
        import importlib, json, sys

        packages = [importlib.import_module(name) for name in {LAZY_PACKAGES!r}]
        loaded = sorted(m for m in sys.modules
                        if m.startswith("repro.") and m not in {LAZY_PACKAGES!r})
        import repro.regalloc  # first: the eager init hid its cycle with repro.core
        resolved = {{p.__name__: {{name: getattr(p, name) is not None for name in p.__all__}}
                    for p in packages}}
        for package in packages:
            exec(f"from {{package.__name__}} import *", {{}})
        print(json.dumps({{"loaded": loaded, "resolved": resolved}}))
    """)
    # Only the recorder: the pipeliners reach it through ``repro.obs``.
    assert report["loaded"] == ["repro.obs.recorder"]
    for name in LAZY_PACKAGES:
        package = importlib.import_module(name)
        assert sorted(report["resolved"][name]) == sorted(package.__all__), name
        assert all(report["resolved"][name].values()), name


#: What a fresh import of each entry point must not load: a module (or a
#: package, with everything under it) that the entry point does not run.
STARTUP_BUDGETS = {
    # The worker side of every cell: the parent-side engine, the bench
    # reporter and its history store, asyncio and the fuzz engine are
    # neither run by a cell nor part of its cache key.
    "repro.exec.runner": (
        "asyncio", "importlib.metadata", "repro.exec.engine", "repro.exec.bench",
        "repro.exec.cache", "repro.exec.hashing", "repro.exec.pool", "repro.obs.history",
        "repro.obs.provenance", "repro.obs.service", "repro.fuzz.engine", "repro.eval",
        "repro.serve",
    ),
    # Every ``python -m repro`` command: the experiments load only when one runs.
    "repro.__main__": ("repro.eval", "repro.verify", "repro.sim", "repro.exec.bench"),
    # ``repro serve``: no experiment, load generator or bench reporter.
    "repro.serve.daemon": ("repro.eval", "repro.serve.loadgen", "repro.exec.bench"),
}


@pytest.mark.parametrize("entry", sorted(STARTUP_BUDGETS))
def test_a_fresh_import_loads_only_what_it_runs(entry):
    modules = run_fresh(f"""
        import json, sys
        import {entry}
        print(json.dumps(sorted(sys.modules)))
    """)
    loaded = sorted(
        module for module in modules
        if any(module == name or module.startswith(name + ".") for name in STARTUP_BUDGETS[entry])
    )
    assert loaded == [], f"import {entry} loads {', '.join(loaded)}"


@pytest.mark.parametrize(
    "driver, loads_scipy",
    [("most", True), ("portfolio:cp,ilp", True), ("portfolio:cp", False)],
)
def test_solver_loads_before_the_budget_starts(driver, loads_scipy):
    report = run_fresh(f"""
        import json, sys
        from repro.most import walk
        from repro.most.scheduler import MostOptions, most_pipeline_loop
        from repro.portfolio.driver import PortfolioOptions, portfolio_pipeline_loop
        from repro.machine import r8000
        from repro.workloads import livermore_kernel

        budgets = []
        Budget = walk.SolveBudget

        def recording_budget(*args, **kwargs):
            budgets.append("scipy.optimize" in sys.modules)
            return Budget(*args, **kwargs)

        walk.SolveBudget = recording_budget
        machine = r8000()
        loop = livermore_kernel(1, machine)
        scheduler, _, backends = {driver!r}.partition(":")
        if scheduler == "most":
            result = most_pipeline_loop(loop, machine, MostOptions(time_limit=20.0))
        else:
            options = PortfolioOptions(backends=backends, time_limit=20.0)
            result = portfolio_pipeline_loop(loop, machine, options)
        print(json.dumps({{"budgets": budgets, "success": result.success,
                          "scipy": "scipy" in sys.modules}}))
    """)
    assert report["success"]
    assert report["budgets"] == [loads_scipy]
    assert report["scipy"] is loads_scipy


#: The driver and solver entry points :mod:`repro.obs.explain` must never
#: reach: it attributes a finished run from that run's own trail.
EXPLAIN_FORBIDDEN = (
    "repro.core.iisearch",
    "repro.rau.scheduler",
    "repro.most.formulation",
    "repro.most.walk",
    "repro.portfolio.ilp_backend",
    "repro.portfolio.driver",
    "repro.portfolio.cp",
)


def _absolute_imports(path: pathlib.Path, source: Optional[str] = None):
    """Every module ``path`` imports, relative imports resolved; for
    ``from pkg import name`` both ``pkg`` and ``pkg.name``.  ``source``
    stands in for the file's text (a mutated copy)."""
    package = list(path.relative_to(SRC.parent).with_suffix("").parts[:-1])
    if source is None:
        source = path.read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source, filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def _reached(imports, forbidden):
    return sorted(
        name for name in set(imports)
        if any(name == bad or name.startswith(bad + ".") for bad in forbidden)
    )


def test_explain_imports_no_driver_or_solver_entry_point():
    imports = set(_absolute_imports(SRC / "obs" / "explain.py"))
    assert "repro.core.minii" in imports  # the resolver sees the lazy imports
    found = _reached(imports, EXPLAIN_FORBIDDEN)
    assert not found, f"repro/obs/explain.py imports {', '.join(found)}"


#: The scheduler registry and the pipeliner drivers: what only
#: :mod:`repro.exec` may run.  The checkers and the explainer judge what a
#: cell produced and never reach them.
DRIVERS = (
    "repro.schedulers",
    "repro.core.driver",
    "repro.most",
    "repro.rau",
    "repro.portfolio.driver",
)
DRIVER_FREE = sorted((SRC / "verify").glob("*.py")) + [SRC / "obs" / "explain.py"]


@pytest.mark.parametrize("path", DRIVER_FREE, ids=lambda p: str(p.relative_to(SRC)))
def test_checkers_and_explain_import_no_driver(path):
    found = _reached(_absolute_imports(path), DRIVERS)
    assert not found, f"{path.relative_to(SRC.parent)} imports {', '.join(found)}"


def _names(node: ast.AST):
    """The name a ``get_scheduler``/``REGISTRY`` reference goes by."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _scheduler_runs(source: str, filename: str = "<src>"):
    """Lines that call ``Scheduler.run``: ``.run`` on ``get_scheduler(...)``
    or ``REGISTRY[...]``, or on a name assigned from one."""
    tree = ast.parse(source, filename=filename)

    def entry(node):
        if isinstance(node, ast.Call):
            return _names(node.func) == "get_scheduler"
        return isinstance(node, ast.Subscript) and _names(node.value) == "REGISTRY"

    bound = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and entry(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "run"
        and (entry(node.func.value) or _names(node.func.value) in bound)
    ]


RUNNER = SRC / "exec" / "runner.py"


def test_only_the_exec_runner_runs_a_scheduler():
    found = {
        str(path.relative_to(SRC)): lines
        for path in sorted(SRC.rglob("*.py"))
        if (lines := _scheduler_runs(path.read_text(encoding="utf-8"), str(path)))
    }
    assert list(found) == ["exec/runner.py"], found
    assert len(found["exec/runner.py"]) == 1


@pytest.mark.parametrize(
    "call",
    ["get_scheduler(name).run(loop, machine, options)",
     "driver = REGISTRY[name]\n    driver.run(loop, machine, options)"],
)
def test_scheduler_run_guard_catches_a_mutated_copy(call):
    path = SRC / "analyze" / "api.py"
    source = path.read_text(encoding="utf-8")
    anchor = "def _cross_check(loop: Loop, machine: MachineDescription, entry: LoopAnalysis) -> None:\n"
    mutated = source.replace(anchor, anchor + f"    {call}\n")
    assert mutated != source
    assert _scheduler_runs(source) == []
    assert len(_scheduler_runs(mutated)) == 1


#: The schedule checker audits II against a MinII it recomputes itself; the
#: schedulers' memoized RecMII and the certified bounds must stay out of it.
SCHEDCHECK = SRC / "verify" / "schedcheck.py"
SCHEDCHECK_FORBIDDEN = ("repro.core", "repro.analyze")


def test_schedule_checker_imports_nothing_from_core_or_analyze():
    found = _reached(_absolute_imports(SCHEDCHECK), SCHEDCHECK_FORBIDDEN)
    assert not found, f"repro/verify/schedcheck.py imports {', '.join(found)}"


@pytest.mark.parametrize(
    "line, reached",
    [
        ("from ..core.minii import rec_mii", ["repro.core.minii", "repro.core.minii.rec_mii"]),
        ("import repro.analyze.bounds", ["repro.analyze.bounds"]),
    ],
)
def test_schedule_checker_guard_catches_a_mutated_copy(line, reached):
    source = SCHEDCHECK.read_text(encoding="utf-8")
    # Inside a function, as a lazy import would be.
    mutated = source.replace(
        "def _independent_rec_mii(loop: Loop) -> int:\n",
        f"def _independent_rec_mii(loop: Loop) -> int:\n    {line}\n",
    )
    assert mutated != source
    assert _reached(_absolute_imports(SCHEDCHECK, mutated), SCHEDCHECK_FORBIDDEN) == reached
