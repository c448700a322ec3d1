"""Self-tests of the end-to-end benchmark, on 3-loop slices of each workload.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import subprocess
import sys
import time

import pytest

from repro.exec import cells

from . import cli, compare, serveload, spans, workloads
from .run import ROOT
from .stats import beyond, tail_level

BENCH = cli.load_benchmark()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "2", "--limit", "3",
            "--trace", str(trace), "--out", str(tmp_path / "runs.json")]
    status = cli.main(argv)
    captured = capsys.readouterr()
    assert status == 0, captured.err
    lines = captured.out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    body = "\n".join(lines[:-1])
    for metric in declared:
        pattern = rf"^\s+{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}\b"
        assert re.search(pattern, body, re.M), f"{metric['name']} not printed with its unit"
    if not trace:
        # The printed tail percentile keeps at least ten samples beyond it.
        level, n, past = map(int, re.search(
            r"p(\d+) \S+ ms \(n=(\d+), (\d+) beyond\)", body).groups())
        assert n <= 10 or past >= 10
        assert past == beyond(n, level)
    runs = compare.load_runs(str(tmp_path / "runs.json"))
    assert [(r["workload"], r["trace"]) for r in runs] == [(workload, bool(trace))]


def test_tail_level_is_the_highest_with_ten_beyond():
    for n in range(11, 4000):
        level = tail_level(n)
        assert beyond(n, level) >= 10
        assert level == 100 or beyond(n, level + 1) < 10
    assert tail_level(10) == 100


def test_wrapper_table_resolves_and_restores_every_original():
    before = {}
    for entry in spans.WRAPPED:
        owner, attr, original = spans.resolve(entry.target)
        aliases = [(m, name) for m in spans._repro_modules()
                   for name, value in vars(m).items() if value is original]
        before[entry.target] = (original, [(owner, attr)] + aliases)
    with spans.Tracer() as tracer:
        for target, (original, sites) in before.items():
            for owner, attr in sites:
                wrapped = getattr(owner, attr)
                assert wrapped is not original and wrapped.__wrapped__ is original, (target, attr)
        cells.clear_loop_memo()
        cells.resolve_loop("livermore:lk01_hydro")  # through the module: the rebound name
    for target, (original, sites) in before.items():
        for owner, attr in sites:
            assert getattr(owner, attr) is original, (target, attr)
    names = [span[0] for span in tracer.spans]
    assert names[:2] == ["exec.resolve", "workloads.livermore"]
    assert tracer.spans[1][3] == 0  # the kernel build is a child of the resolve
    assert tracer.layer_metrics()["workloads.loops_built"] == 24


def test_a_missing_wrapped_function_fails_by_name():
    missing = spans.Wrapped("core.gone", "core.gone_ms", "repro.core.bnb:no_such_function")
    with pytest.raises(AttributeError, match="repro.core.bnb:no_such_function"):
        with spans.Tracer([missing]):
            pass


def test_the_seed_fixes_generated_loops_and_arrivals():
    keys = workloads.corpus_keys()
    assert workloads.generated_specs(5) == workloads.generated_specs(5)
    assert workloads.generated_specs(5) != workloads.generated_specs(6)
    assert workloads.serve_schedule(5, 4, keys) == workloads.serve_schedule(5, 4, keys)
    assert workloads.serve_schedule(5, 4, keys) != workloads.serve_schedule(6, 4, keys)
    assert workloads.batch_cells("corpus-sgi", 5) == workloads.batch_cells("corpus-sgi", 5)
    assert workloads.batch_cells("corpus-sgi", 5) != workloads.batch_cells("corpus-sgi", 6)


def test_open_loop_latency_counts_from_the_due_time(tmp_path):
    path = str(tmp_path / "fake.sock")
    stall = 0.2

    async def handle(reader, writer):
        while line := await reader.readline():
            request = json.loads(line)
            if request["id"] == "o0":
                time.sleep(stall)  # blocks the whole loop: the generator stalls too
            writer.write((json.dumps({"id": request["id"], "ok": True}) + "\n").encode())
            await writer.drain()

    async def drive():
        server = await asyncio.start_unix_server(handle, path=path)
        async with server:
            client = await serveload.Client.open(path)
            arrivals = [workloads.Arrival(0.01 * i, {"id": f"o{i}"}) for i in range(5)]
            records = await serveload.open_loop([client], arrivals)
            await client.close()
        return records

    records = asyncio.run(drive())
    late = records[3]
    assert late["sent"] - late["due"] > 0.5 * stall
    assert serveload.latency_ms(late) >= 1e3 * (late["sent"] - late["due"])
    assert serveload.latency_ms(late) - 1e3 * (late["received"] - late["sent"]) > 500 * stall


@pytest.mark.parametrize("a, b, expected", [
    ([10, 10.1, 9.9, 10, 10], [10, 10.1, 9.9, 10, 10], "unchanged"),
    ([10, 10.1, 9.9, 10, 10], [13, 13.1, 12.9, 13, 13], "worse"),
    ([10, 10.1, 9.9, 10, 10], [7, 7.1, 6.9, 7, 7], "better"),
    ([10, 20, 5, 30, 10], [10, 10.1, 9.9, 10, 10], "unresolved"),
])
def test_compare_verdicts(a, b, expected):
    assert compare.verdict(list(enumerate(a)), list(enumerate(b)), "lower", 0.1) == expected


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/e2e/run.py", "--workload", "corpus-sgi"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
