"""Golden refined-bound snapshots and crafted-circuit unit tests.

The goldens freeze ``(MinII, schedulable bound, allocatable bound,
certificate count)`` for every loop of the Livermore and recbound
corpora.  A diff here is a *semantic* change to the analyzer: either a
sharper argument (bounds go up — update the goldens and say why in the
commit) or a regression (bounds go down — a proof got lost).
"""

from __future__ import annotations

import pytest

from repro.analyze.api import analyze_corpus
from repro.analyze.bounds import compute_bounds
from repro.core import pipeline_loop
from repro.ir import LoopBuilder
from repro.machine import r8000
from repro.verify.boundcheck import check_achieved, check_bounds

pytestmark = pytest.mark.verify


#: loop -> (MinII, schedulable bound, allocatable bound, certificates).
#: Livermore: no loop lifts — every certified bound equals MinII, i.e.
#: the corpus' II gaps are search-budget artifacts, not certified
#: infeasibility (see EXPERIMENTS.md, "Certified lower bounds").
LIVERMORE_GOLDEN = {
    "lk01_hydro": (2, 2, 2, 2),
    "lk02_iccg": (3, 3, 3, 2),
    "lk03_inner": (2, 2, 2, 3),
    "lk04_banded": (2, 2, 2, 3),
    "lk05_tridiag": (8, 8, 8, 3),
    "lk06_linrec": (4, 4, 4, 3),
    "lk07_eos": (5, 5, 5, 2),
    "lk08_adi": (11, 11, 11, 2),
    "lk09_predict": (6, 6, 6, 2),
    "lk10_diffpred": (7, 7, 7, 2),
    "lk11_firstsum": (4, 4, 4, 3),
    "lk12_firstdiff": (2, 2, 2, 2),
    "lk13_pic2d": (11, 11, 11, 3),
    "lk14_pic1d": (11, 11, 11, 3),
    "lk15_casual": (14, 14, 14, 2),
    "lk16_monte": (5, 5, 5, 3),
    "lk17_implicit": (9, 9, 9, 3),
    "lk18_hydro2d": (7, 7, 7, 2),
    "lk19_linrec2": (4, 4, 4, 3),
    "lk20_ordinates": (32, 32, 32, 3),
    "lk21_matmul": (2, 2, 2, 3),
    "lk22_planck": (28, 28, 28, 2),
    "lk23_implhydro": (31, 31, 31, 3),
    "lk24_firstmin": (5, 5, 5, 3),
}

#: recbound: the adversarial corpus the bounds were built to prune.
RECBOUND_GOLDEN = {
    "rb_coupled_division": (28, 34, 34, 9),
    "rb_div_sqrt": (34, 37, 37, 6),
    "rb_diamond3": (12, 13, 13, 4),
    "rb_fan5": (16, 18, 18, 5),
    "rb_reg_farm": (34, 37, 39, 8),
    "rb_stream_control": (2, 2, 2, 2),
}


def _snapshot(corpus):
    report = analyze_corpus(corpus, check=True)
    assert report.ok, report.formatted()
    return report, {
        e.loop: (e.min_ii, e.schedulable_bound, e.allocatable_bound, e.certificates)
        for e in report.entries
    }


class TestGoldenBounds:
    def test_livermore_snapshot(self):
        report, got = _snapshot("livermore")
        assert got == LIVERMORE_GOLDEN
        # The headline finding: zero lift anywhere on the real corpus.
        assert report.lifted == []

    def test_recbound_snapshot(self):
        report, got = _snapshot("recbound")
        assert got == RECBOUND_GOLDEN
        lifted = {e.loop for e in report.lifted}
        assert lifted == {
            "rb_coupled_division",
            "rb_div_sqrt",
            "rb_diamond3",
            "rb_fan5",
            "rb_reg_farm",
        }

    def test_recurrence_certificate_matches_rec_mii(self):
        """The recurrence certificate's bound is exactly RecMII, corpus-wide."""
        machine = r8000()
        from repro.exec.cells import corpus_loop_keys, resolve_loop

        for key in corpus_loop_keys("livermore") + corpus_loop_keys("recbound"):
            loop = resolve_loop(key, machine)
            bounds = compute_bounds(loop, machine)
            recs = [c for c in bounds.certificates if c["kind"] == "recurrence"]
            if bounds.rec_mii > 1:
                assert recs, loop.name
                assert recs[0]["bound"] == bounds.rec_mii, loop.name


def build_divpair(machine):
    """A crafted circuit with a large certified lift.

    The recurrence ``acc -> fadd -> {fdiv, fdiv} -> fadd -> acc`` pins
    both divides to rigid offsets on the critical circuit, but the
    machine has a single fpdiv unit: at ``II = RecMII = 28`` they land
    in the same modulo slot (slot_conflict), and each II up to 41 is
    excluded by an offset-window argument.  The certified schedulable
    bound is 42 — a +14 lift over MinII — and the B&B scheduler indeed
    first succeeds at II=42, so the bound is tight here.
    """
    b = LoopBuilder("crafted_divpair", machine=machine, trip_count=100)
    r = b.recurrence("acc")
    a = b.fadd(r.use(), b.invariant("k0"))
    d1 = b.fdiv(a, b.invariant("k1"))
    d2 = b.fdiv(a, b.invariant("k2"))
    r.close(b.fadd(d1, d2))
    b.live_out_value(r)
    return b.build()


class TestCraftedCircuit:
    @pytest.fixture(scope="class")
    def machine(self):
        return r8000()

    @pytest.fixture(scope="class")
    def divpair(self, machine):
        loop = build_divpair(machine)
        return loop, compute_bounds(loop, machine)

    def test_certified_lift(self, divpair):
        loop, bounds = divpair
        assert bounds.min_ii == 28
        assert bounds.schedulable_bound == 42
        assert bounds.allocatable_bound == 42
        kinds = {c["kind"] for c in bounds.certificates}
        assert {"recurrence", "resource", "slot_conflict", "offset_exclusion"} <= kinds

    def test_certificates_validate_independently(self, divpair, machine):
        loop, bounds = divpair
        report = check_bounds(loop, machine, bounds.to_dict())
        assert report.ok, report.formatted()

    def test_bound_is_tight(self, divpair, machine):
        """The scheduler achieves exactly the certified bound, spill-free."""
        loop, bounds = divpair
        result = pipeline_loop(loop, machine)
        assert result.success
        assert result.spill_rounds == 0
        assert result.ii == bounds.refined_bound == 42
        achieved = check_achieved(
            bounds.to_dict(), ii=result.ii, spill_free=True, source="sgi"
        )
        assert achieved.ok, achieved.formatted()

    def test_below_bound_is_a_contradiction(self, divpair):
        """check_achieved rejects any II below the certified floor."""
        loop, bounds = divpair
        achieved = check_achieved(
            bounds.to_dict(), ii=bounds.refined_bound - 1, spill_free=True,
            source="fabricated",
        )
        assert not achieved.ok
        assert "BOUND005" in achieved.rules_hit()


def test_analyze_json_carries_checkable_certificates(capsys):
    """``repro analyze --json`` regenerates every loop's certificates."""
    import json

    from repro.__main__ import main
    from repro.exec.cells import resolve_loop

    assert main(["analyze", "recbound", "--schedulers", "sgi", "--json", "-",
                 "--no-cache"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert {e["loop"] for e in entries} == set(RECBOUND_GOLDEN)
    machine = r8000()
    for entry in entries:
        payload = entry["bounds"]
        assert len(payload["certificates"]) == entry["certificates"], entry["loop"]
        report = check_bounds(resolve_loop(f"recbound:{entry['loop']}", machine), machine, payload)
        assert report.ok, report.formatted()
