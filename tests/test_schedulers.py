"""The scheduler registry contract: one table, one result type."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.driver import FALLBACK_OPTIONS, PipelineResult, PipelinerOptions, pipeline_loop
from repro.exec.cells import SCHEDULERS, resolve_loop
from repro.machine import r8000
from repro.schedulers import PRESETS, REGISTRY, get_scheduler
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


#: Option keys retired because no production caller set them (MaxII, the
#: spill-round limit and the Rau94 budget are module constants now).
RETIRED = {
    "sgi": ("ii_cap_factor", "max_spill_rounds", "strict_pairing"),
    "rau": ("ii_cap_factor", "max_spill_rounds", "budget_ratio"),
    "most": ("ii_cap_factor", "stages", "priority_branching"),
    "portfolio": ("ii_cap_factor", "stages", "priority_branching"),
}


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_retired_option_keys_are_rejected(name):
    # A retired key fails loudly; it never runs silently as the default.
    for key in RETIRED[name]:
        with pytest.raises(ValueError, match=key):
            REGISTRY[name].options_from_dict({key: 1})


@pytest.mark.parametrize(
    "bad", [{"engine": "highs"}, {"objective": "bufers"}], ids=["engine", "objective"]
)
def test_most_rejects_unknown_option_values(bad):
    # Checking keys is not enough: an unknown engine or objective must not
    # run silently as B&B / the buffer objective.
    (value,) = bad.values()
    with pytest.raises(ValueError, match=value):
        get_scheduler("most").options_from_dict(bad)
    with pytest.raises(ProtocolError, match=value):
        parse_schedule_request(
            {"id": "r1", "op": "schedule", "loop": LOOP, "scheduler": "most",
             "options": bad}
        )


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_every_result_exposes_the_common_read_surface(name):
    machine = r8000()
    scheduler = REGISTRY[name]
    loop = resolve_loop(LOOP, machine)
    result = scheduler.run(loop, machine, scheduler.options_from_dict(LIGHT.get(name, {})))
    assert isinstance(result, PipelineResult)
    assert result.success is True
    assert result.schedule is not None and result.allocation is not None
    assert result.ii == result.schedule.ii
    assert result.loop is not None and result.min_ii <= result.ii
    assert isinstance(result.optimal, bool)
    assert result.fallback_used is False and result.original is loop
    assert isinstance(result.spill_rounds, int)
    assert result.stats.seconds >= 0.0


@pytest.mark.parametrize("name", ["most", "portfolio"])
def test_forced_fallback_agrees_with_the_fallback_result(name):
    # A walk fallback is the heuristic backup's own result, flagged, with
    # the walk's effort and (empty) probe trail on it.
    machine = r8000()
    scheduler = REGISTRY[name]
    loop = resolve_loop(LOOP, machine)
    options = scheduler.options_from_dict({**LIGHT[name], "max_ops": 0})
    result = scheduler.run(loop, machine, options)
    direct = pipeline_loop(loop, machine, PipelinerOptions.from_dict(FALLBACK_OPTIONS))
    assert isinstance(result, PipelineResult)
    assert result.fallback_used is True and result.optimal is False
    assert result.probes == [] and result.stats.solves == 0
    assert result.success is direct.success is True
    assert result.schedule.producer.startswith("sgi/")
    assert result.schedule.times == direct.schedule.times
    assert result.allocation.registers_used == direct.allocation.registers_used
    assert result.allocation.fp_assignment == direct.allocation.fp_assignment
    assert result.allocation.int_assignment == direct.allocation.int_assignment
    assert result.original is loop and result.loop.n_ops == direct.loop.n_ops
    assert (result.spilled, result.spill_rounds) == (direct.spilled, direct.spill_rounds)
    assert result.order_name == direct.order_name != ""
    untimed = [[dataclasses.replace(a, seconds=0.0) for a in r.attempted] for r in (result, direct)]
    assert untimed[0] == untimed[1] != []


#: Every command's options before they moved into the registry: (preset,
#: MOST's overrides) -> scheduler -> the literal dict it ran.  These
#: dicts feed cache keys and the committed BENCH baselines, so the presets
#: must reproduce them byte for byte.
_MOST_BENCH = {"time_limit": 20.0, "engine": "scipy", "max_ops": 61, "max_nodes": 4000}
_PORTFOLIO_BENCH = {"time_limit": 20.0, "backends": "cp,ilp", "max_ops": 61,
                    "max_nodes": 20000, "cross_check": True}
PINNED_PRESETS = [
    ("bench", {}, {"most": _MOST_BENCH, "portfolio": _PORTFOLIO_BENCH}),
    ("quick", {}, {"most": {**_MOST_BENCH, "max_nodes": 2000},
                   "portfolio": _PORTFOLIO_BENCH}),
    ("fuzz", {}, {
        "most": {"engine": "bnb", "fallback": False, "time_limit": 1.0,
                 "max_nodes": 2000, "max_ops": 64},
        "portfolio": {"backends": "cp,ilp", "cross_check": True, "fallback": False,
                      "time_limit": 1.0, "max_nodes": 2000, "max_ops": 64},
    }),
    ("paper", {"time_limit": 10.0, "fallback": True}, {
        "most": {"time_limit": 10.0, "engine": "scipy", "max_ops": 61, "fallback": True},
    }),
]


@pytest.mark.parametrize(
    "preset,overrides,expected", PINNED_PRESETS,
    ids=[p for p, _, _ in PINNED_PRESETS],
)
def test_presets_reproduce_the_old_per_command_options(preset, overrides, expected):
    # The overrides are MOST's: the experiments' budget is its only caller.
    for name in ("sgi", "most", "rau"):
        got = get_scheduler(name).preset(preset, **(overrides if name == "most" else {}))
        assert got == expected.get(name, {}), name
    if "portfolio" in expected:
        assert get_scheduler("portfolio").preset(preset) == expected["portfolio"]


def test_overrides_go_on_top_of_the_preset():
    assert get_scheduler("most").preset("quick", max_nodes=9) == {**_MOST_BENCH, "max_nodes": 9}
    assert get_scheduler("sgi").preset("paper") == {}
    with pytest.raises(ValueError, match="unknown preset"):
        get_scheduler("most").preset("nightly")


def test_one_preset_per_purpose():
    # The figures, the grid (full and quick) and the fuzzer: every other
    # command is a view of the grid and runs no option set of its own.
    assert PRESETS == ("paper", "bench", "quick", "fuzz")
    for entry in REGISTRY.values():
        assert set(entry.presets) <= set(PRESETS), entry.name
