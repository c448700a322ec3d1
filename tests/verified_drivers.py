"""The test suites' safety net: every pipeliner result is verified.

The drivers never check their own output; outside the tests a run is
verified only by the exec oracle (``Cell.oracle``), whose flag is part of
the cell's cache key.  Inside the tests every schedule any test produces
is checked anyway: :func:`install` replaces each registered driver, on its
defining module and on every loaded ``repro`` or test module that binds it,
with a wrapper that runs :func:`repro.verify.result_report` on the result
and raises :class:`repro.verify.VerificationError` on any ERROR.

``tests/conftest.py`` and ``benchmarks/conftest.py`` call :func:`install`
from ``pytest_configure``, before any test module is collected, so a test
module's ``from repro.core.driver import pipeline_loop`` binds the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Any, Callable, Dict, List

from repro.schedulers import REGISTRY
from repro.verify import result_report

#: Module-name prefixes whose bindings :func:`install` rewrites and
#: :func:`unwrapped_bindings` audits.
SCANNED = ("repro", "tests", "benchmarks")


def _drivers() -> Dict[str, Any]:
    """Each registered driver's defining module, by driver name."""
    return {
        entry.driver: importlib.import_module(entry.module, "repro")
        for entry in REGISTRY.values()
    }


def _verified(driver: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(driver)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = driver(*args, **kwargs)
        result_report(result).raise_if_errors()
        return result

    wrapper.verified_driver = True  # type: ignore[attr-defined]
    return wrapper


def _scanned_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and name.split(".")[0] in SCANNED
    ]


def install() -> None:
    """Wrap every registered driver wherever it is bound (idempotent)."""
    for name, module in _drivers().items():
        original = getattr(module, name)
        if getattr(original, "verified_driver", False):
            continue
        wrapper = _verified(original)
        for scanned in _scanned_modules():
            for attr, value in list(vars(scanned).items()):
                if value is original:
                    setattr(scanned, attr, wrapper)


def unwrapped_bindings() -> List[str]:
    """``module.attr`` of every loaded binding of an unwrapped driver."""
    unwrapped: List[str] = []
    originals = set()
    for name, module in _drivers().items():
        driver = getattr(module, name)
        if getattr(driver, "verified_driver", False):
            originals.add(id(driver.__wrapped__))
        else:
            unwrapped.append(f"{module.__name__}.{name}")
    for scanned in _scanned_modules():
        unwrapped += [
            f"{scanned.__name__}.{attr}"
            for attr, value in vars(scanned).items()
            if id(value) in originals
        ]
    return unwrapped
