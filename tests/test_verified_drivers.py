"""The suites' safety net is checked, not assumed (tests/verified_drivers.py)."""

from __future__ import annotations

import sys

import pytest

from repro.schedulers import REGISTRY, get_scheduler
from repro.verify import VerificationError

from . import verified_drivers
from .conftest import build_daxpy

pytestmark = pytest.mark.verify


def test_no_loaded_module_binds_an_unwrapped_driver():
    assert verified_drivers.unwrapped_bindings() == []


def test_the_guard_sees_a_planted_unwrapped_driver(monkeypatch):
    from repro.core import driver

    monkeypatch.setattr(
        sys.modules[__name__], "planted", driver.pipeline_loop.__wrapped__, raising=False
    )
    assert verified_drivers.unwrapped_bindings() == [f"{__name__}.planted"]


def test_install_is_idempotent():
    from repro.core import driver

    wrapper = driver.pipeline_loop
    verified_drivers.install()
    assert driver.pipeline_loop is wrapper


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_every_driver_raises_on_a_corrupt_ddg(machine, name):
    loop = build_daxpy(machine)
    object.__setattr__(loop.ddg.arcs[0], "latency", -2)
    scheduler = get_scheduler(name)
    with pytest.raises(VerificationError) as exc:
        scheduler.run(loop, machine, scheduler.options_from_dict({}))
    assert "DDG002" in str(exc.value)
