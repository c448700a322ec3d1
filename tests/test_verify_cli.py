"""The ``python -m repro verify`` subcommand and the ``--strict`` flag."""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.verify import default_verify, set_default_verify
from repro.exec.cells import corpus_loop_keys
from repro.verify.api import SweepEntry, SweepResult

pytestmark = pytest.mark.verify


class TestVerifyCommand:
    def test_sweep_exits_zero_on_clean_corpus(self, capsys):
        # One scheduler over the smaller corpus keeps this test quick; the
        # full three-scheduler sweep is `make verify-corpus`.
        code = main(["verify", "livermore", "--schedulers", "sgi"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 error(s)" in out
        assert "lk24_firstmin" in out

    def test_unknown_corpus_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonesuch"])
        assert exc.value.code == 2
        assert "unknown corpus" in capsys.readouterr().err

    def test_unknown_scheduler_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "livermore", "--schedulers", "bogus"])
        assert exc.value.code == 2
        assert "unknown scheduler" in capsys.readouterr().err

    def test_corpus_loop_keys_counts(self):
        assert len(corpus_loop_keys("livermore")) == 24
        assert len(corpus_loop_keys("recbound")) == 6
        # ``all`` is the three corpora, concatenated in order.
        assert corpus_loop_keys("all") == (
            corpus_loop_keys("livermore")
            + corpus_loop_keys("spec92")
            + corpus_loop_keys("recbound")
        )


class TestSweepResult:
    def test_exit_status_tracks_errors(self):
        sweep = SweepResult(corpus="x")
        sweep.entries.append(
            SweepEntry(loop="l", scheduler="sgi", ii=2, success=True, errors=0, warnings=1)
        )
        assert sweep.ok
        sweep.entries.append(
            SweepEntry(loop="m", scheduler="rau", ii=3, success=True, errors=2, warnings=0)
        )
        assert not sweep.ok
        text = sweep.formatted()
        assert "FAIL" in text and "warn" in text


@pytest.fixture
def restore_default_verify():
    before = default_verify()
    yield
    set_default_verify(before)


class TestStrictFlag:
    def test_strict_turns_verification_on_for_experiments(
        self, monkeypatch, restore_default_verify, capsys
    ):
        import repro.__main__ as mm

        seen = {}

        def fake_experiment(config):
            seen["verify"] = default_verify()

            class _R:
                def formatted(self):
                    return "stub result"

            return _R()

        monkeypatch.setitem(mm.EXPERIMENTS, "fake", (fake_experiment, "stub"))
        set_default_verify(False)
        assert main(["fake", "--strict"]) == 0
        assert seen["verify"] is True

    def test_strict_exits_nonzero_on_verification_error(
        self, monkeypatch, restore_default_verify, capsys
    ):
        import repro.__main__ as mm
        from repro.verify import Report, Severity, VerificationError

        def failing_experiment(config):
            report = Report()
            report.add("SCHED001", Severity.ERROR, "seeded failure", loop="stub")
            raise VerificationError(report)

        monkeypatch.setitem(mm.EXPERIMENTS, "fake", (failing_experiment, "stub"))
        assert main(["fake", "--strict"]) == 1
        assert "SCHED001" in capsys.readouterr().err
        # Without --strict the error propagates instead of being swallowed.
        with pytest.raises(VerificationError):
            main(["fake"])
