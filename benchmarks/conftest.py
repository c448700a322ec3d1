"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables or figures.  The
rendered artefact is written to ``benchmarks/output/<name>.txt`` so runs
can be archived (EXPERIMENTS.md quotes them), and headline numbers land in
pytest-benchmark's ``extra_info``.

Experiments are deterministic but expensive (they compile the entire
workload corpus, some of it twice, and run the ILP scheduler under a time
budget), so every benchmark executes exactly one round.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.eval import ExperimentConfig
from tests import verified_drivers

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def pytest_configure(config):
    """Benchmarks run strict: the quoted figures must verify cleanly.

    Installed before collection, like the test suite's safety net."""
    verified_drivers.install()


@pytest.fixture(scope="session")
def experiment_config() -> ExperimentConfig:
    # The paper gave the ILP three minutes per loop; benchmarks give it a
    # few seconds — enough for optimality on small loops and a faithful
    # "timed out, fell back" signal on big ones.
    return ExperimentConfig(most_time_limit=6.0)


@pytest.fixture(scope="session")
def record_artifact():
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _record(result) -> None:
        path = OUTPUT_DIR / f"{result.name}.txt"
        path.write_text(result.formatted() + "\n")

    return _record


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
