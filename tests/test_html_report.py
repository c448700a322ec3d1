"""Tests for repro.obs.html (the dashboard) and Table.to_rows/clipping."""

from __future__ import annotations

import pytest

from repro.eval.report import MAX_CELL_WIDTH, Table
from repro.obs.html import (
    render_report,
    validate_html,
    validate_report_file,
    write_report,
)


def _explanation(loop="lk01", scheduler="sgi", binding="resource", **kw):
    base = {
        "loop": loop, "scheduler": scheduler, "success": True,
        "ii": 2, "min_ii": 2, "res_mii": 2, "rec_mii": 1,
        "minii_side": "resource", "binding": binding,
        "detail": "bottleneck resource 'mem' at 100% utilization",
        "gap": 0, "critical_circuit": [], "utilization": {"mem": 1.0},
        "bottleneck": "mem", "spill_rounds": 0, "spilled": [],
        "fallback": False,
        "attempts": [{"phase": "sgi", "ii": 2, "success": True}],
        "evidence": {},
        "mrt": [
            {
                "slot": 0,
                "ops": [{"index": 0, "opcode": "fadd", "stage": 0}],
                "used": {"fp": 1, "mem": 0},
            },
            {
                "slot": 1,
                "ops": [{"index": 1, "opcode": "load", "stage": 0}],
                "used": {"fp": 0, "mem": 1},
            },
        ],
    }
    base.update(kw)
    return base


class TestTableRows:
    def test_to_rows_formats_and_clips(self):
        table = Table("t", ["a", "b"])
        table.add(1.23456, "x" * 100)
        (row,) = table.to_rows(max_width=10)
        assert row[0] == "1.235"
        assert len(row[1]) == 10 and row[1].endswith("…")
        # max_width=0 disables clipping (the HTML renderer's setting).
        (full,) = table.to_rows()
        assert full[1] == "x" * 100

    def test_control_characters_are_escaped(self):
        table = Table("t", ["a"])
        table.add("line1\nline2\ttab")
        (row,) = table.to_rows()
        assert row[0] == "line1\\nline2\\ttab"

    def test_formatted_uses_clipped_cells(self):
        table = Table("title", ["col"])
        table.add("y" * (MAX_CELL_WIDTH * 2))
        text = table.formatted()
        assert "…" in text
        assert "y" * (MAX_CELL_WIDTH * 2) not in text
        longest = max(len(line) for line in text.splitlines())
        assert longest <= MAX_CELL_WIDTH + 2


class TestRenderReport:
    def test_empty_report_is_still_valid(self):
        html = render_report()
        assert validate_html(html) == []
        assert "empty report" in html

    def test_all_panels_present_and_valid(self):
        table = Table("Figure 6", ["kernel", "ratio"])
        table.add("lk01", 1.5)
        diff = {
            "old": "pipeline", "new": "pipeline",
            "old_code_version": "abc", "new_code_version": "def",
            "by_cause": {"code": 1},
            "regressions": ["II regressed: a × sgi 4 -> 5"],
            "warnings": [], "infos": [],
            "cells": [{
                "loop": "a", "scheduler": "sgi", "status": "regression",
                "cause": "code", "deltas": {"ii": [4, 5]},
                "obs_deltas": {}, "notes": [],
            }],
        }
        bench = {
            "name": "pipeline", "machine": "r8000", "wall_seconds": 1.0,
            "totals": {
                "cells": 2,
                "by_scheduler": {
                    "sgi": {"cells": 1, "at_min_ii": 1, "timeouts": 0,
                            "fallbacks": 0, "errors": 0,
                            "schedule_seconds": 0.01},
                },
                "obs": {"bnb.placements": 42},
                "ilp_vs_heuristic_time_geomean": 212.7,
            },
        }
        html = render_report(
            meta={"corpus": "livermore"},
            explanations=[
                _explanation(),
                _explanation(loop="lk08", binding="register_pressure", ii=19,
                             gap=8, min_ii=11),
            ],
            tables=[table],
            charts=["lk01 ##### 1.5"],
            diff=diff,
            bench=bench,
        )
        problems = validate_html(
            html, required_ids=["explanations", "figures", "diff", "bench"]
        )
        assert problems == []
        # Self-contained: inline style/script, no network fetches.
        assert "<style>" in html and "<script>" in html
        assert "http://" not in html and "https://" not in html
        assert "register_pressure" in html
        assert "212.7" in html

    def test_cells_are_escaped(self):
        table = Table("fig", ["v"])
        table.add("<script>alert(1)</script>")
        html = render_report(
            explanations=[_explanation(detail="<b>bold</b> & <i>sneaky</i>")],
            tables=[table],
        )
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;alert(1)&lt;/script&gt;" in html
        assert "<b>bold</b>" not in html

    def test_drilldown_carries_mrt_and_timeline(self):
        html = render_report(explanations=[_explanation()])
        assert "<details>" in html
        assert "Modulo reservation table" in html
        assert "II-attempt timeline" in html
        assert "fadd" in html


class TestValidation:
    def test_rejects_empty_and_truncated_documents(self):
        assert validate_html("") == ["document is empty"]
        problems = validate_html("<!DOCTYPE html><html><head><title>t</title>")
        assert any("unclosed" in p or "missing" in p for p in problems)

    def test_detects_mismatched_nesting(self):
        bad = (
            "<!DOCTYPE html><html><head><title>t</title></head>"
            "<body><section><table></section></table>"
            + "x" * 50 + "</body></html>"
        )
        assert any("mis-nested" in p or "unopened" in p for p in validate_html(bad))

    def test_required_ids(self):
        html = render_report(explanations=[_explanation()])
        assert validate_html(html, required_ids=["explanations"]) == []
        assert validate_html(html, required_ids=["figures"]) != []

    def test_validate_report_file(self, tmp_path):
        missing = validate_report_file(tmp_path / "nope.html")
        assert missing and "no report" in missing[0]
        path = write_report(
            tmp_path / "sub" / "report.html",
            explanations=[_explanation()],
        )
        assert validate_report_file(path, ["explanations"]) == []


class TestReportCli:
    def test_report_smoke(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.exec.bench import BenchOptions, run_sweep

        # The explanation panel is drawn from the BENCH json the report loads.
        options = BenchOptions(quick=True, schedulers=("sgi",), limit=2, cache_dir=None,
                               output_dir=tmp_path)
        _, bench = run_sweep("livermore", options, progress=None)
        out = tmp_path / "report.html"
        code = main([
            "report", "--experiments", "none",
            "--bench", str(bench),
            "--baseline", str(tmp_path / "nobase"),
            "--output", str(out), "--check",
        ])
        assert code == 0
        assert validate_report_file(out, ["explanations", "bench"]) == []
        assert "valid" in capsys.readouterr().out
        html = out.read_text()
        assert "lk01_hydro" in html and "lk02_iccg" in html
