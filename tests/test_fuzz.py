"""Tests of the repro.fuzz harness: mutation, oracle, minimizer, engine."""

import random

import pytest

from repro.exec.cells import CellResult
from repro.fuzz import (
    INJECTIONS,
    FuzzConfig,
    ORACLE_KINDS,
    Violation,
    check_results,
    evaluate_spec,
    minimize_spec,
    run_fuzz,
)
from repro.fuzz.corpus import CorpusEntry, entry_name, load_entries, write_entry
from repro.fuzz.engine import _dedup_key
from repro.machine import r8000
from repro.workloads import (
    GeneratorConfig,
    LoopSpec,
    MUTATORS,
    OpSpec,
    crossover,
    normalize,
    random_spec,
    remove_position,
    spec_from_token,
    spec_to_token,
)
from repro.workloads.mutate import mutate

MACHINE = r8000()


def _pool(n=6):
    shape = GeneratorConfig(n_compute=4, n_streams=2, n_stores=1,
                            n_recurrences=1, p_indirect=0.2)
    return [
        normalize(random_spec(s, shape, name=f"p{s}", rng=random.Random(s)))
        for s in range(n)
    ]


def _assert_mem_contract(spec):
    """Every spec must stay inside the ir.memdep analysability contract."""
    store_bases = {op.base for op in spec.ops if op.kind == "store"}
    shape = {}
    for op in spec.ops:
        if op.kind not in ("load", "store"):
            continue
        if op.offset is None:
            assert op.base not in store_bases
        else:
            stride_width = shape.setdefault(op.base, (op.stride, op.width))
            assert (op.stride, op.width) == stride_width


class TestNormalize:
    def test_empty_spec_gets_minimal_body(self):
        spec = normalize(LoopSpec(name="e", ops=()))
        assert spec.n_ops == 2
        spec.build(MACHINE).check_well_formed()

    def test_idempotent_and_buildable_over_mutants(self):
        rng = random.Random(42)
        pool = _pool()
        for _ in range(60):
            spec = mutate(rng.choice(pool), rng, n=rng.randrange(1, 4))
            assert normalize(spec) == spec
            _assert_mem_contract(spec)
            spec.build(MACHINE).check_well_formed()
            pool.append(spec)

    def test_crossover_stays_normalized(self):
        rng = random.Random(7)
        pool = _pool()
        for _ in range(30):
            spec = crossover(rng.choice(pool), rng.choice(pool), rng)
            assert normalize(spec) == spec
            _assert_mem_contract(spec)
            spec.build(MACHINE).check_well_formed()

    def test_mixed_stride_stores_are_made_coherent(self):
        spec = normalize(LoopSpec(name="m", ops=(
            OpSpec("fadd", srcs=(("inv", "c0"), ("inv", "c1"))),
            OpSpec("store", srcs=(("val", 0),), base="out0", offset=0, stride=8),
            OpSpec("store", srcs=(("val", 0),), base="out0", offset=0, stride=32),
        )))
        strides = {op.stride for op in spec.ops if op.kind == "store"}
        assert strides == {8}

    def test_indirect_load_moved_off_stored_base(self):
        spec = normalize(LoopSpec(name="m", ops=(
            OpSpec("load", base="out0", offset=None),
            OpSpec("store", srcs=(("val", 0),), base="out0", offset=0),
        )))
        load = next(op for op in spec.ops if op.kind == "load")
        store = next(op for op in spec.ops if op.kind == "store")
        assert load.base != store.base

    def test_unclosed_recurrences_are_closed(self):
        spec = normalize(LoopSpec(
            name="r", n_recs=2,
            ops=(OpSpec("fadd", srcs=(("inv", "c0"), ("rec", 0, 1))),),
        ))
        assert sum(1 for op in spec.ops if op.kind == "close") == 2
        spec.build(MACHINE).check_well_formed()

    def test_every_mutator_produces_a_buildable_spec(self):
        pool = _pool(3)
        for name in MUTATORS:
            rng = random.Random(13)
            for parent in pool:
                spec = mutate(parent, rng, n=1, names=[name])
                _assert_mem_contract(spec)
                spec.build(MACHINE).check_well_formed()


class TestTokenCodec:
    def test_round_trip(self):
        for spec in _pool():
            assert spec_from_token(spec_to_token(spec)) == spec

    def test_token_is_filesystem_safe(self):
        token = spec_to_token(_pool(1)[0])
        assert all(c.isalnum() or c in "-_" for c in token)


class TestRemovePosition:
    def test_strictly_shrinks_or_stalls(self):
        spec = _pool(1)[0]
        while spec.n_ops > 1:
            nxt = remove_position(spec, 0)
            if nxt is None or nxt.n_ops >= spec.n_ops:
                break
            spec = nxt
        spec.build(MACHINE).check_well_formed()


def _result(scheduler, **kw):
    base = dict(loop="fuzz:x", scheduler=scheduler, success=True,
                ii=4, min_ii=4, optimal=False)
    base.update(kw)
    return CellResult(**base)


class TestOracle:
    def test_clean_results_yield_no_violations(self):
        results = {"sgi": _result("sgi"), "most": _result("most", optimal=True)}
        assert check_results(results) == []

    def test_crash_layer(self):
        results = {"sgi": _result("sgi", success=False, error="Boom\nValueError: x")}
        kinds = [v.kind for v in check_results(results)]
        assert kinds == ["crash"]

    def test_timeout_is_not_a_crash(self):
        results = {"sgi": _result("sgi", success=False, error="deadline",
                                  timeout=True)}
        assert check_results(results) == []

    def test_giving_up_is_not_a_violation(self):
        results = {"most": _result("most", success=False, error=None, ii=None)}
        assert check_results(results) == []

    def test_verify_layer(self):
        results = {"rau": _result("rau", verify_errors=["SCHED001: late"])}
        violations = check_results(results)
        assert [v.kind for v in violations] == ["verify"]
        assert "SCHED001" in violations[0].detail

    def test_funcsim_layer(self):
        results = {"sgi": _result("sgi", funcsim_ok=False, funcsim_detail="diff")}
        assert [v.kind for v in check_results(results)] == ["funcsim"]

    def test_min_ii_layer(self):
        results = {"sgi": _result("sgi", ii=3, min_ii=5)}
        assert [v.kind for v in check_results(results)] == ["min_ii"]

    def test_optimality_layer_fires_only_on_proved_optimal(self):
        sgi = _result("sgi", ii=4)
        assert [v.kind for v in check_results(
            {"sgi": sgi, "most": _result("most", ii=6, optimal=True)}
        )] == ["optimality"]
        # Unproved or fallback results prove nothing.
        assert check_results(
            {"sgi": sgi, "most": _result("most", ii=6, optimal=False)}) == []
        assert check_results(
            {"sgi": sgi, "most": _result("most", ii=6, optimal=True,
                                         fallback=True)}) == []

    def test_optimality_layer_covers_the_portfolio(self):
        from repro.fuzz.engine import _minimal_schedulers

        sgi = _result("sgi", ii=4)
        violations = check_results(
            {"sgi": sgi, "portfolio": _result("portfolio", ii=5, optimal=True)}
        )
        assert [(v.kind, v.scheduler) for v in violations] == [
            ("optimality", "portfolio")
        ]
        assert _minimal_schedulers(violations[0]) == ("sgi", "portfolio")
        # A portfolio answer rescued by the SGI fallback proves nothing.
        assert check_results({"sgi": sgi, "portfolio": _result(
            "portfolio", ii=5, optimal=True, fallback=True)}) == []

    def test_all_kinds_are_documented(self):
        assert set(ORACLE_KINDS) == {"crash", "verify", "funcsim",
                                     "min_ii", "bound", "optimality",
                                     "agreement"}

    def test_bound_layer(self):
        results = {"sgi": _result("sgi", ii=3, min_ii=3, refined_bound=5)}
        violations = check_results(results)
        assert [v.kind for v in violations] == ["bound"]
        assert "refined bound=5" in violations[0].detail

    def test_bound_layer_skips_spilled_results(self):
        # Spill rounds rewrote the loop; the pristine certificates no
        # longer bind the achieved II.
        results = {"sgi": _result("sgi", ii=3, min_ii=3, refined_bound=5,
                                  spill_rounds=1)}
        assert check_results(results) == []

    def test_bound_layer_quiet_without_analysis(self):
        results = {"sgi": _result("sgi", ii=3, min_ii=3, refined_bound=None)}
        assert check_results(results) == []


class TestMinimizer:
    def test_reduces_to_predicate_core(self):
        spec = _pool(1)[0]
        rng = random.Random(5)
        for _ in range(6):
            spec = mutate(spec, rng, n=2)

        def has_fdiv(candidate):
            return any(op.kind == "fdiv" for op in candidate.ops)

        rng2 = random.Random(9)
        while not has_fdiv(spec):
            spec = mutate(spec, rng2, n=1, names=["add_compute", "change_opcode"])
        minimized, evaluations = minimize_spec(spec, has_fdiv)
        assert has_fdiv(minimized)
        assert minimized.n_ops <= spec.n_ops
        assert minimized.n_ops <= 4
        assert evaluations >= 1

    def test_flaky_predicate_returns_unreduced(self):
        spec = _pool(1)[0]
        minimized, evaluations = minimize_spec(spec, lambda s: False)
        assert minimized == normalize(spec)
        assert evaluations == 1

    def test_terminates_on_always_true_predicate(self):
        spec = _pool(1)[0]
        minimized, _ = minimize_spec(spec, lambda s: True, max_evaluations=80)
        minimized.build(MACHINE).check_well_formed()


class TestInjectionCalibration:
    """Each seeded fault must be caught by its designed oracle layer."""

    def _rec_bound_spec(self):
        shape = GeneratorConfig(n_compute=1, n_streams=1, n_stores=0,
                                n_recurrences=2)
        return normalize(random_spec(0, shape, name="recb",
                                     rng=random.Random(0)))

    def test_latency_injection_caught_by_min_ii_layer(self):
        verdict = evaluate_spec(self._rec_bound_spec(), ("sgi",),
                                inject="latency")
        assert any(v.kind == "min_ii" for v in verdict.violations)

    def test_sched_shift_injection_caught_by_verify_layer(self):
        verdict = evaluate_spec(self._rec_bound_spec(), ("sgi",),
                                inject="sched-shift")
        assert any(v.kind == "verify" for v in verdict.violations)

    def test_reg_clobber_injection_caught(self):
        shape = GeneratorConfig(n_compute=4, n_streams=2, n_stores=1,
                                n_recurrences=1)
        spec = normalize(random_spec(1, shape, name="clob",
                                     rng=random.Random(1)))
        verdict = evaluate_spec(spec, ("sgi",), inject="reg-clobber")
        assert any(v.kind in ("verify", "funcsim") for v in verdict.violations)

    def test_clean_spec_passes_every_layer(self):
        verdict = evaluate_spec(self._rec_bound_spec(), ("sgi", "most", "rau"))
        assert verdict.violations == []
        for result in verdict.results.values():
            assert result.verify_errors == []
            assert result.funcsim_ok is not False

    def test_unknown_injection_rejected(self):
        with pytest.raises(ValueError):
            FuzzConfig(inject="nope")

    def test_injection_registry_names(self):
        assert set(INJECTIONS) == {"latency", "sched-shift", "reg-clobber"}


class TestCorpusIO:
    def test_entry_round_trips_through_disk(self, tmp_path):
        spec = _pool(1)[0]
        violation = Violation("verify", "sgi", "SCHED001: x")
        entry = CorpusEntry(
            name=entry_name(violation, "ab" * 10, "sched-shift"),
            spec=spec, expect="clean", violation=violation,
            injected_fault="sched-shift", schedulers=("sgi",),
            fingerprint="ab" * 10, n_ops=spec.n_ops,
        )
        write_entry(str(tmp_path), entry)
        loaded = load_entries(str(tmp_path))
        assert len(loaded) == 1
        assert loaded[0].spec == spec
        assert loaded[0].violation == violation
        assert loaded[0].injected_fault == "sched-shift"

    def test_entry_names_distinguish_faults(self):
        violation = Violation("funcsim", "sgi", "diff")
        plain = entry_name(violation, "0" * 12)
        injected = entry_name(violation, "0" * 12, "reg-clobber")
        assert plain != injected

    def test_missing_directory_is_empty_corpus(self, tmp_path):
        assert load_entries(str(tmp_path / "nope")) == []


class TestDedupKey:
    def test_counts_are_not_root_cause_markers(self):
        a = Violation("funcsim", "sgi", "3 memory word(s) differ")
        b = Violation("funcsim", "sgi", "17 memory word(s) differ")
        assert _dedup_key(a) == _dedup_key(b)

    def test_rule_ids_are(self):
        a = Violation("verify", "sgi", "SCHED001: late")
        b = Violation("verify", "sgi", "REG002: overlap")
        assert _dedup_key(a) != _dedup_key(b)


@pytest.mark.fuzz
class TestEngine:
    def test_bounded_session_is_clean_and_deterministic(self, tmp_path):
        config = FuzzConfig(seconds=300.0, jobs=1, seed=5, max_loops=6,
                            write=False, corpus_dir=str(tmp_path))
        first = run_fuzz(config)
        second = run_fuzz(config)
        assert first.ok and second.ok
        assert first.stats.loops == second.stats.loops == 6
        assert first.stats.coverage_keys == second.stats.coverage_keys
        assert first.stats.violations == 0

    def test_injected_session_writes_a_reproducer(self, tmp_path):
        config = FuzzConfig(seconds=300.0, jobs=1, seed=7, max_loops=10,
                            inject="sched-shift", schedulers=("sgi",),
                            corpus_dir=str(tmp_path), minimize_budget=40)
        report = run_fuzz(config)
        assert report.findings
        entries = load_entries(str(tmp_path))
        assert entries
        assert all(e.injected_fault == "sched-shift" for e in entries)
        assert all(e.n_ops <= 8 for e in entries)
