"""Run-history store and statistical trend layer (repro.obs.{history,stats,trend}).

All history fixtures here are synthetic payloads with *explicit*
``created_at`` stamps — the trend acceptance criteria (a 2× step lands
as ``step_change`` at the right run, ±10% noise never becomes ``drift``)
must hold with no wall-clock dependence at all.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.__main__ import main
from repro.obs import stats
from repro.obs.diffbench import diff_reports
from repro.obs.history import HistoryStore, append_history, seed_from_baselines
from repro.obs.html import render_report, validate_html
from repro.obs.trend import (
    build_trend,
    classify_series,
    history_panel_data,
    trend_report,
)


def diff_main(argv):
    return main(["diff", *argv])


def trend_main(argv):
    return main(["trend", *argv])

SHAS = [f"{i + 1:x}" * 40 for i in range(8)]


def _payload(i, sgi_seconds, ii=5, name="pipeline"):
    """One synthetic BENCH payload: run ``i``, deterministic timestamp."""
    return {
        "name": name,
        "created_at": f"2026-07-{i + 1:02d}T00:00:00+00:00",
        "code_version": f"cv{i}",
        "provenance": {
            "git_sha": SHAS[i],
            "host_fingerprint": "testhost00ab",
            "python_version": "3.11",
            "scipy_version": None,
            "platform": "test",
        },
        "totals": {
            "by_scheduler": {"sgi": {"schedule_seconds": sgi_seconds}},
            "service": {
                "latency_ms": {"p50_ms": 2.0, "p99_ms": 9.0},
                "hit_rate": 0.8,
            },
        },
        "cells": [{
            "loop": "livermore:lk01_hydro", "scheduler": "sgi",
            "ii": ii, "schedule_seconds": sgi_seconds,
        }],
    }


def _store(tmp_path, seconds, **kwargs):
    store = HistoryStore(tmp_path)
    for i, s in enumerate(seconds):
        store.append(_payload(i, s, **kwargs))
    return store


# ----------------------------------------------------------------------
# History store
# ----------------------------------------------------------------------
def test_history_append_order_collisions_and_index(tmp_path):
    store = _store(tmp_path, [1.0, 1.1])
    # Appending the same payload again must not overwrite the record.
    third = store.append(_payload(1, 1.1))
    assert third.exists() and third.name.endswith("-1.json")

    runs = store.runs("pipeline")
    assert [r.sha12 for r in runs] == [SHAS[0][:12], SHAS[1][:12], SHAS[1][:12]]
    assert runs[0].created_at < runs[1].created_at

    index = json.loads((tmp_path / "pipeline" / "index.json").read_text())
    assert [r["file"] for r in index["runs"]] == [r.path.name for r in runs]
    assert store.names() == ["pipeline"]
    assert store.latest("pipeline").path == runs[-1].path
    assert store.runs("pipeline", last=2)[0].path == runs[1].path


def test_append_history_disabled_and_provenance_backfill(tmp_path):
    assert append_history(_payload(0, 1.0), history_dir=None) is None
    # A payload without provenance is stamped on the way in.
    bare = {"name": "pipeline", "created_at": "2026-07-01T00:00:00+00:00"}
    path = HistoryStore(tmp_path).append(bare)
    stored = json.loads(path.read_text())
    assert stored["provenance"]["host_fingerprint"]


def test_seed_from_baselines_is_idempotent(tmp_path):
    baseline = tmp_path / "baseline"
    baseline.mkdir()
    (baseline / "BENCH_pipeline.json").write_text(json.dumps(_payload(0, 1.0)))
    history = tmp_path / "history"
    first = seed_from_baselines(baseline, history)
    assert len(first) == 1
    assert seed_from_baselines(baseline, history) == []
    assert len(HistoryStore(history).runs("pipeline")) == 1


# ----------------------------------------------------------------------
# Rank statistics
# ----------------------------------------------------------------------
def test_mann_whitney_exact_small_samples():
    res = stats.mann_whitney_u([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
    assert res.exact
    # Only the two fully separated rank assignments are as extreme:
    # p = 2 * 1/C(6,3) = 0.1.
    assert res.p_value == pytest.approx(0.1)
    mirrored = stats.mann_whitney_u([10.0, 11.0, 12.0], [1.0, 2.0, 3.0])
    assert mirrored.p_value == pytest.approx(res.p_value)
    assert stats.mann_whitney_u([], [1.0]).p_value is None


def test_cliffs_delta_bounds_and_sign():
    assert stats.cliffs_delta([1.0, 2.0], [3.0, 4.0]) == 1.0
    assert stats.cliffs_delta([3.0, 4.0], [1.0, 2.0]) == -1.0
    assert stats.cliffs_delta([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert stats.cliffs_delta([], [1.0]) is None


def test_bootstrap_ci_deterministic_and_degenerate():
    values = [1.0, 1.2, 0.9, 1.5, 1.1]
    assert stats.bootstrap_ci(values) == stats.bootstrap_ci(values)
    lo, hi = stats.bootstrap_ci(values)
    assert lo <= stats.median(values) <= hi
    assert stats.bootstrap_ci([3.0]) == (3.0, 3.0)
    assert stats.bootstrap_ci([]) is None


def test_kendall_tau_monotone_series():
    assert stats.kendall_tau([1.0, 2.0, 3.0, 4.0]) == 1.0
    assert stats.kendall_tau([4.0, 3.0, 2.0, 1.0]) == -1.0
    assert abs(stats.kendall_tau([1.0, 3.0, 2.0, 4.0])) < 1.0
    assert stats.kendall_tau([1.0]) is None


# ----------------------------------------------------------------------
# Series classification — the acceptance gates
# ----------------------------------------------------------------------
def test_classify_insufficient_and_constant():
    assert classify_series([1.0, 2.0, 3.0]).classification == "stable"
    assert "insufficient" in classify_series([1.0, 2.0, 3.0]).detail
    assert classify_series([5.0] * 6).detail == "constant"


def test_injected_2x_step_lands_at_the_right_run():
    verdict = classify_series([1.0, 1.02, 0.98, 2.05, 2.1])
    assert verdict.classification == "step_change"
    assert verdict.changepoint == 3
    assert verdict.direction == "up"
    assert verdict.rel_change == pytest.approx(1.075, rel=0.05)

    down = classify_series([2.0, 2.1, 1.95, 1.0, 0.98, 1.02])
    assert down.classification == "step_change"
    assert down.changepoint == 3 and down.direction == "down"


def test_step_in_the_newest_run_is_detectable():
    """The ``repro diff --trend`` case: the fresh run is the step."""
    verdict = classify_series([1.0, 1.02, 0.98, 1.01, 2.2])
    assert verdict.classification == "step_change"
    assert verdict.changepoint == 4


def test_pure_noise_is_never_drift_or_step():
    rng = random.Random(1996)
    for _ in range(40):
        series = [1.0 * (1.0 + rng.uniform(-0.10, 0.10)) for _ in range(6)]
        verdict = classify_series(series)
        assert verdict.classification in ("stable", "noisy"), (series, verdict)


def test_monotone_ramp_is_drift_not_step():
    verdict = classify_series([1.0, 1.15, 1.32, 1.5, 1.7, 1.9])
    assert verdict.classification == "drift"
    assert verdict.direction == "up"


def test_missing_runs_map_changepoint_to_run_index():
    verdict = classify_series([None, 1.0, 1.0, 2.0, 2.0, None, 2.0])
    assert verdict.classification == "step_change"
    assert verdict.changepoint == 3


# ----------------------------------------------------------------------
# Trend reports over stored runs
# ----------------------------------------------------------------------
def test_trend_report_attributes_step_to_commit_range(tmp_path):
    _store(tmp_path, [1.0, 1.02, 0.98, 2.05, 2.1])
    report = trend_report("pipeline", history_dir=tmp_path)
    entry = next(
        e for e in report.entries if e.metric == "sgi total schedule_seconds"
    )
    assert entry.verdict.classification == "step_change"
    assert entry.regression and not entry.improvement
    assert entry.commit_range == (SHAS[2][:12], SHAS[3][:12])
    assert not report.ok
    assert "REGRESSION" in report.formatted()

    cell_ii = next(
        e for e in report.entries if e.metric.endswith("× sgi II")
    )
    assert cell_ii.kind == "quality"
    assert cell_ii.verdict.classification == "stable"


def test_timing_step_down_is_an_improvement(tmp_path):
    _store(tmp_path, [2.0, 2.1, 1.95, 1.0, 0.98])
    report = trend_report("pipeline", history_dir=tmp_path)
    entry = next(
        e for e in report.entries if e.metric == "sgi total schedule_seconds"
    )
    assert entry.improvement and not entry.regression
    assert report.ok


def test_trend_report_judges_a_fresh_run_last(tmp_path):
    _store(tmp_path, [1.0, 1.02, 0.98, 1.01])
    report = trend_report(
        "pipeline", history_dir=tmp_path, fresh=_payload(4, 2.2)
    )
    assert len(report.runs) == 5
    entry = next(
        e for e in report.entries if e.metric == "sgi total schedule_seconds"
    )
    assert entry.verdict.classification == "step_change"
    assert entry.verdict.changepoint == len(report.runs) - 1


# ----------------------------------------------------------------------
# diff --trend gating
# ----------------------------------------------------------------------
def test_diff_trend_escalates_only_fresh_steps(tmp_path):
    _store(tmp_path, [1.0, 1.02, 0.98, 1.01])
    fresh = _payload(4, 2.2)
    baseline = _payload(3, 1.01)

    assert diff_reports(baseline, fresh).ok  # pairwise: timing at most warns
    diff = diff_reports(
        baseline, fresh, trend_report("pipeline", history_dir=tmp_path, fresh=fresh)
    )
    assert any("introduced by this run" in line for line in diff.regressions)
    assert diff.trend["by_class"]["step_change"] >= 1

    # An old step (already in history before the fresh run) only warns.
    old_store = tmp_path / "old-step"
    _store(old_store, [1.0, 1.02, 2.0, 2.05])
    fresh2 = _payload(4, 2.02)
    diff2 = diff_reports(
        _payload(3, 2.05), fresh2,
        trend_report("pipeline", history_dir=old_store, fresh=fresh2),
    )
    assert not any("introduced by this run" in line for line in diff2.regressions)
    assert any(line.startswith("trend step_change") for line in diff2.warnings)


def test_diff_cli_trend_strict_fails_on_fresh_step(tmp_path, capsys):
    _store(tmp_path / "hist", [1.0, 1.02, 0.98, 1.01])
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps(_payload(3, 1.01)))
    new.write_text(json.dumps(_payload(4, 2.2)))

    rc = diff_main([
        str(old), str(new), "--trend",
        "--history-dir", str(tmp_path / "hist"), "--strict",
    ])
    assert rc == 1
    assert "introduced by this run" in capsys.readouterr().out

    # Same diff without the step: fresh run in line with history passes.
    new.write_text(json.dumps(_payload(4, 1.0)))
    assert diff_main([
        str(old), str(new), "--trend",
        "--history-dir", str(tmp_path / "hist"), "--strict",
    ]) == 0
    capsys.readouterr()

    # --json - emits the machine-readable diff (trend block included).
    rc = diff_main([
        str(old), str(new), "--trend",
        "--history-dir", str(tmp_path / "hist"), "--json", "-",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trend"]["name"] == "pipeline"
    assert len(payload["trend"]["runs"]) == 5


def test_diff_trend_strict_fails_on_a_fresh_step_already_filed(tmp_path, capsys):
    # ``repro bench`` files its run before ``repro diff --trend`` reads the
    # store: the stored copy must not count as an older run.
    _store(tmp_path / "hist", [1.0, 1.02, 0.98, 1.01])
    fresh = _payload(4, 2.2)
    HistoryStore(tmp_path / "hist").append(fresh)
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps(_payload(3, 1.01)))
    new.write_text(json.dumps(fresh))

    rc = diff_main([
        str(old), str(new), "--trend",
        "--history-dir", str(tmp_path / "hist"), "--strict", "--json", "-",
    ])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["trend"]["runs"]) == 5
    assert any("introduced by this run" in line for line in payload["regressions"])


# ----------------------------------------------------------------------
# CLI + dashboard panel
# ----------------------------------------------------------------------
def test_trend_cli_check_and_json(tmp_path, capsys):
    _store(tmp_path, [1.0, 1.02, 0.98, 2.05, 2.1])
    assert trend_main(["pipeline", "--history-dir", str(tmp_path)]) == 0
    assert trend_main(["pipeline", "--history-dir", str(tmp_path), "--check"]) == 1
    capsys.readouterr()

    rc = trend_main([
        "pipeline", "--history-dir", str(tmp_path), "--json", "-",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["by_class"]["step_change"] >= 1
    assert payload["ok"] is False

    # Unknown names are an empty report, not an error.
    assert trend_main(["nonesuch", "--history-dir", str(tmp_path)]) == 0


def test_trend_check_names_only_the_series_that_stepped(tmp_path, capsys):
    """A 2x step in one phase at one run fails ``repro trend --check``,
    naming that series and its commit range; every other series stays
    stable."""
    jitter = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0]
    store = HistoryStore(tmp_path)
    for i, j in enumerate(jitter):
        payload = _payload(i, 3.0 * j)
        payload["totals"]["by_scheduler"]["most"] = {"schedule_seconds": 40.0 * j}
        payload["totals"]["service"] = {
            "latency_ms": {"p50_ms": 2.0 * j, "p99_ms": 9.0 * j}, "hit_rate": 0.8,
        }
        payload["benches"] = {"bnb_search": 0.02 * j}
        payload["cells"].append({
            "loop": "livermore:lk02_iccg", "scheduler": "sgi", "ii": 7,
            "schedule_seconds": 0.05 * j * (2 if i >= 3 else 1),
        })
        store.append(payload)

    rc = trend_main(["pipeline", "--history-dir", str(tmp_path), "--check"])
    assert rc == 1
    flagged = [line for line in capsys.readouterr().out.splitlines()
               if "REGRESSION" in line]
    stepped = "livermore:lk02_iccg × sgi schedule_seconds"
    (line,) = flagged
    assert stepped in line
    assert f"commits {SHAS[2][:12]}..{SHAS[3][:12]}" in line

    trend_main(["pipeline", "--history-dir", str(tmp_path), "--json", "-"])
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert {e["metric"]: e["verdict"]["classification"] for e in entries} == {
        e["metric"]: "step_change" if e["metric"] == stepped else "stable"
        for e in entries
    }
    assert len(entries) == 10


def test_history_panel_renders_and_validates(tmp_path):
    _store(tmp_path, [1.0, 1.02, 0.98, 2.05, 2.1])
    data = history_panel_data(tmp_path)
    assert [h["name"] for h in data["histories"]] == ["pipeline"]
    panel = data["histories"][0]
    assert len(panel["runs"]) == 5
    assert panel["by_class"]["step_change"] >= 1
    assert any(r["regression"] for r in panel["entries"])

    html = render_report(meta={}, history=data)
    assert validate_html(html, ["history"]) == []
    assert "svg" in html  # sparklines made it in


def test_history_panel_placeholder_below_two_runs(tmp_path):
    empty = render_report(meta={}, history=history_panel_data(tmp_path))
    assert validate_html(empty, ["history"]) == []
    assert "Not enough stored runs yet" in empty

    _store(tmp_path, [1.0])
    single = render_report(meta={}, history=history_panel_data(tmp_path))
    assert validate_html(single, ["history"]) == []
