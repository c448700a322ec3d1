"""Property tests: generated loops through the neutral IR and the backends.

Hypothesis drives :func:`repro.workloads.generators.random_spec` /
:mod:`repro.workloads.mutate` to produce arbitrary (well-formed) loops;
each one is lowered to a :class:`ModuloFormulation` and answered by every
available backend.  The properties are the agreement oracle's invariants
plus the certified bound from :mod:`repro.analyze.bounds`: no sat below
the certificate, no definitive contradictions, every witness checks.
Disagreements shrink through the fuzzer's own ddmin
(:func:`repro.fuzz.minimize.minimize_spec`) before being reported.
"""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.analyze.bounds import schedulable_bound  # noqa: E402
from repro.core import min_ii  # noqa: E402
from repro.fuzz.minimize import minimize_spec  # noqa: E402
from repro.machine import r8000  # noqa: E402
from repro.portfolio import build_modulo_formulation, check_witness  # noqa: E402
from repro.portfolio.answer import SAT, ProbeRecord, probe_disagreements  # noqa: E402
from repro.portfolio.cp import solve_cp  # noqa: E402
from repro.most.formulation import build_formulation  # noqa: E402
from repro.portfolio.ilp_backend import solve_ilp  # noqa: E402
from repro.portfolio.smt import smt_available, solve_smt  # noqa: E402
from repro.workloads import GeneratorConfig, normalize, random_spec  # noqa: E402
from repro.workloads.mutate import mutate  # noqa: E402

MACHINE = r8000()

# Small shapes keep each example cheap; the budgets below make unknown
# (never a wrong definitive answer) the worst case on a slow example.
CP_BUDGET = dict(max_nodes=20_000, time_limit=1.0)
ILP_BUDGET = dict(max_nodes=5_000, time_limit=1.0)


@st.composite
def loop_specs(draw):
    """A generated-then-mutated LoopSpec, always normalized."""
    seed = draw(st.integers(min_value=0, max_value=2**30))
    shape = GeneratorConfig(
        n_compute=draw(st.integers(min_value=0, max_value=6)),
        n_streams=draw(st.integers(min_value=0, max_value=3)),
        n_stores=draw(st.integers(min_value=0, max_value=2)),
        n_recurrences=draw(st.integers(min_value=0, max_value=2)),
        p_fmadd=draw(st.sampled_from([0.0, 0.25, 0.5])),
        p_fdiv=draw(st.sampled_from([0.0, 0.1])),
    )
    spec = random_spec(seed, shape, name="hyp")
    n_mut = draw(st.integers(min_value=0, max_value=3))
    if n_mut:
        spec = mutate(spec, random.Random(seed ^ 0x5EED), n=n_mut)
    return normalize(spec)


def _answers(loop, f):
    out = [solve_cp(f, **CP_BUDGET), solve_ilp(build_formulation(f), **ILP_BUDGET)]
    if smt_available():
        out.append(solve_smt(f, time_limit=1.0))
    return out


def _audit(spec):
    """All probe records + witness failures for one spec, or None to skip."""
    loop = spec.build(MACHINE)
    if loop.n_ops == 0 or loop.n_ops > 24:
        return None
    mii = min_ii(loop, MACHINE)
    bound = schedulable_bound(loop, MACHINE, base=mii)
    probes = []
    for ii in sorted({max(1, mii - 1), mii, bound}):
        f = build_modulo_formulation(loop, MACHINE, ii)
        if f.infeasible:
            continue
        for answer in _answers(loop, f):
            witness_ok = None
            if answer.answer == SAT:
                witness_ok = not check_witness(f, answer.times or {})
                assert ii >= mii, (
                    f"{loop.name}: {answer.backend} sat at II={ii} < MinII={mii}"
                )
                assert ii >= bound, (
                    f"{loop.name}: {answer.backend} sat at II={ii} below "
                    f"certified bound={bound}"
                )
            probes.append(ProbeRecord(
                ii=ii, backend=answer.backend, answer=answer.answer,
                witness_ok=witness_ok,
            ))
    return probes


def _disagrees(spec):
    """ddmin predicate: does this spec still expose a disagreement?"""
    try:
        probes = _audit(spec)
    except AssertionError:
        return True
    return bool(probes and probe_disagreements(probes))


@given(loop_specs())
@settings(max_examples=25, deadline=None)
def test_backends_agree_on_generated_loops(spec):
    probes = _audit(spec)
    if probes is None:
        return
    findings = probe_disagreements(probes)
    if findings:
        # Shrink with the fuzzer's own reducer so the report names the
        # smallest loop that still disagrees, not the random original.
        small, evals = minimize_spec(spec, _disagrees, max_evaluations=60)
        raise AssertionError(
            f"backend disagreement ({findings}); minimized after {evals} "
            f"evaluations to: {small}"
        )
    for probe in probes:
        if probe.answer == SAT:
            assert probe.witness_ok is True


@given(loop_specs())
@settings(max_examples=10, deadline=None)
def test_formulation_screens_are_sound(spec):
    """An infeasible-screened formulation admits no witness at all: the
    backends must agree with the screen wherever they are definitive."""
    loop = spec.build(MACHINE)
    if loop.n_ops == 0 or loop.n_ops > 16:
        return
    mii = min_ii(loop, MACHINE)
    for ii in (max(1, mii - 1), mii):
        f = build_modulo_formulation(loop, MACHINE, ii)
        if not f.infeasible:
            continue
        assert f.infeasible_reason
        # The screen claims *proven* unsat; a backend handed the same
        # formulation must echo it, not hallucinate a witness.
        for answer in _answers(loop, f):
            assert answer.answer == "unsat"


def test_minimizer_shrinks_a_seeded_disagreement():
    """ddmin plumbing: a synthetic always-true predicate shrinks hard."""
    spec = normalize(random_spec(7, GeneratorConfig(n_compute=8, n_streams=2,
                                                    n_stores=1)))
    small, evals = minimize_spec(spec, lambda s: True, max_evaluations=100)
    assert small.n_ops <= spec.n_ops
    assert evals >= 1
