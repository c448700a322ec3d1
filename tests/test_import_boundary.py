"""numpy and scipy load only in processes that solve an ILP.

:mod:`repro.ilp.solver` is the one module that imports them.  The lint
below holds that line over the source tree; the subprocess tests check
its effect in fresh interpreters (this suite has long since loaded scipy
itself): SGI and CP cells never load the solver stack, an ILP cell does,
and every optimal driver loads it before its wall-clock budget starts.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
import textwrap
from typing import Optional

import pytest

import repro
from repro.obs.provenance import _scipy_version

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


def _run_fresh(script: str) -> dict:
    """Run ``script`` in a fresh interpreter; its last stdout line is JSON."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_sgi_and_cp_cells_never_load_numpy_or_scipy():
    report = _run_fresh("""
        import json, sys
        import repro, repro.__main__, repro.serve
        from repro.exec.cells import Cell
        from repro.exec.runner import execute_cell
        from repro.obs.provenance import provenance

        def native():
            return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))

        def run(scheduler, options):
            cell = Cell.make("livermore:lk01_hydro", scheduler, options, verify=True,
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


@pytest.mark.parametrize(
    "driver, loads_scipy",
    [("most", True), ("portfolio:cp,ilp", True), ("portfolio:cp", False)],
)
def test_solver_loads_before_the_budget_starts(driver, loads_scipy):
    report = _run_fresh(f"""
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
    assert "repro.schedulers" in imports  # the resolver sees the module's imports
    found = _reached(imports, EXPLAIN_FORBIDDEN)
    assert not found, f"repro/obs/explain.py imports {', '.join(found)}"


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
