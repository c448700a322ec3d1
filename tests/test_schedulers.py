"""The scheduler registry contract: one table, one result read surface."""

from __future__ import annotations

import pytest

from repro.exec.cells import SCHEDULERS, resolve_loop
from repro.machine import r8000
from repro.schedulers import REGISTRY, get_scheduler
from repro.serve.protocol import ProtocolError, parse_schedule_request

LOOP = "livermore:lk01_hydro"

#: Light options that keep the optimal drivers quick on a small kernel.
LIGHT = {
    "most": {"time_limit": 20.0, "engine": "scipy"},
    "portfolio": {"time_limit": 20.0},
}


def _request(scheduler: str):
    return parse_schedule_request(
        {"id": "r1", "op": "schedule", "loop": LOOP, "scheduler": scheduler}
    )


def test_cells_and_serve_take_exactly_the_registry_plus_baseline():
    assert sorted(SCHEDULERS) == sorted([*REGISTRY, "baseline"])
    for name in SCHEDULERS:
        assert _request(name).scheduler == name
    with pytest.raises(ProtocolError):
        _request("gcc")
    with pytest.raises(ValueError):
        get_scheduler("baseline")  # no modulo schedule: not a registry entry


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_options_from_empty_dict(name):
    assert REGISTRY[name].options_from_dict({}) is not None


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_every_result_exposes_the_common_read_surface(name):
    machine = r8000()
    scheduler = REGISTRY[name]
    loop = resolve_loop(LOOP, machine)
    result = scheduler.run(loop, machine, scheduler.options_from_dict(LIGHT.get(name, {})))
    assert result.success is True
    assert result.schedule is not None and result.allocation is not None
    assert result.ii == result.schedule.ii
    assert result.loop is not None and result.min_ii <= result.ii
    assert isinstance(result.optimal, bool)
    assert result.fallback_used is False and result.fallback_result is None
    assert isinstance(result.spill_rounds, int)
    assert result.stats.seconds >= 0.0


@pytest.mark.parametrize("name", ["most", "portfolio"])
def test_forced_fallback_agrees_with_the_fallback_result(name):
    machine = r8000()
    scheduler = REGISTRY[name]
    loop = resolve_loop(LOOP, machine)
    options = scheduler.options_from_dict({**LIGHT[name], "max_ops": 0})
    result = scheduler.run(loop, machine, options)
    fallback = result.fallback_result
    assert result.fallback_used is True and fallback is not None
    assert result.optimal is False and fallback.optimal is False
    assert result.spill_rounds == fallback.spill_rounds
    assert result.success == fallback.success
    assert result.schedule is fallback.schedule
    assert result.schedule.producer.startswith("sgi/")
