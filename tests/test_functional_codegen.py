"""End-to-end functional correctness: pipelined code == sequential code."""

import pytest

from repro.core import PipelinerOptions, pipeline_loop
from repro.exec.cells import Cell
from repro.exec.runner import execute_cell
from repro.ir import LoopBuilder
from repro.machine import r8000, two_wide
from repro.pipeline import emit_pipelined_code
from repro.sim import DataLayout, run_pipelined, run_sequential
from repro.sim.functional import ExecutionResult
from repro.workloads.generators import GeneratorConfig, random_loop

from .conftest import (
    build_daxpy,
    build_divider,
    build_first_diff,
    build_memory_heavy,
    build_recurrence_chain,
    build_sdot,
)

ALL_BUILDERS = [
    build_sdot,
    build_daxpy,
    build_first_diff,
    build_recurrence_chain,
    build_memory_heavy,
    build_divider,
]


def check_loop(loop, machine, trips=40, seed=0, options=None):
    res = pipeline_loop(loop, machine, options)
    assert res.success, loop.name
    res.schedule.validate()
    layout = DataLayout(res.loop, trip_count=trips, seed=seed)
    seq = run_sequential(res.loop, layout, trips)
    pipe = run_pipelined(res.schedule, res.allocation, layout, trips)
    assert seq.matches(pipe), f"{loop.name}: pipelined execution diverged"
    return res


class TestPipelinedSemantics:
    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_kernels_compute_correctly(self, machine, builder):
        check_loop(builder(machine), machine)

    @pytest.mark.parametrize("builder", ALL_BUILDERS)
    def test_kernels_compute_correctly_two_wide(self, builder):
        machine = two_wide()
        check_loop(builder(machine), machine)

    @pytest.mark.parametrize("order", ["FDMS", "FDNMS", "HMS", "RHMS"])
    def test_every_priority_order_produces_correct_code(self, machine, order):
        loop = build_memory_heavy(machine)
        check_loop(loop, machine, options=PipelinerOptions(orders=(order,)))

    def test_spilled_loop_computes_correctly(self):
        # A value used at both ends of a long serial chain has a lifetime
        # the scheduler cannot shorten; a reduced register file forces it
        # to be spilled, and the spilled code must still compute correctly.
        machine = r8000()
        machine.fp_regs = 18
        b = LoopBuilder("spilltest", machine=machine, trip_count=30)
        a = b.load("a", offset=0, stride=8)
        t = b.load("c", offset=0, stride=8)
        k = b.invariant("k")
        t = b.fadd(t, a)
        for _ in range(10):
            t = b.fadd(t, k)
        b.store("o", b.fadd(t, a), offset=0, stride=8)
        loop = b.build()
        res = check_loop(loop, machine, trips=30)
        assert res.spilled, "expected the reduced register file to force spills"

    def test_multi_distance_recurrence_semantics(self, machine):
        # Interleaved partial sums: s_n = x_n + s_{n-2}.
        b = LoopBuilder("interleave", machine=machine, trip_count=31)
        s = b.recurrence("s")
        x = b.load("x", offset=0, stride=8)
        s.close(b.fadd(x, s.use(distance=2)))
        b.live_out_value(s)
        check_loop(b.build(), machine, trips=31)

    def test_store_load_forwarding_through_memory(self, machine):
        # store x[i]; load x[i-1]: the pipelined code must preserve the
        # memory dependence.
        b = LoopBuilder("fwd", machine=machine, trip_count=25)
        y = b.load("y", offset=0, stride=8)
        b.store("x", y, offset=0, stride=8)
        w = b.load("x", offset=-8, stride=8)
        b.store("z", b.fadd(w, y), offset=0, stride=8)
        check_loop(b.build(), machine, trips=25)

    def test_if_converted_select_semantics(self, machine):
        b = LoopBuilder("select", machine=machine, trip_count=40)
        x = b.load("x", offset=0, stride=8)
        y = b.load("y", offset=0, stride=8)
        c = b.fcmp(x, y)
        b.store("o", b.select(c, x, y), offset=0, stride=8)
        check_loop(b.build(), machine, trips=40)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_loops_compute_correctly(self, machine, seed):
        config = GeneratorConfig(
            n_compute=8 + seed % 7,
            n_streams=2 + seed % 3,
            n_stores=1 + seed % 2,
            n_recurrences=seed % 3,
            p_fdiv=0.05 if seed % 4 == 0 else 0.0,
            trip_count=20,
        )
        loop = random_loop(seed, config, machine)
        check_loop(loop, machine, trips=20, seed=seed)


class TestExecutionResultMatches:
    """NaN is unequal to itself, so ``matches`` falls back to bit patterns
    when ``==`` fails: the same NaN bits on both sides are the same result."""

    def test_same_nan_bits_match(self):
        nan = float("nan")
        a = ExecutionResult(memory={8: nan, 16: 1.0}, live_out={"acc0": nan})
        b = ExecutionResult(memory={8: float("nan"), 16: 1.0},
                            live_out={"acc0": float("nan")})
        assert a.matches(b)

    def test_different_values_still_mismatch(self):
        a = ExecutionResult(memory={8: 1.0}, live_out={})
        b = ExecutionResult(memory={8: 2.0}, live_out={})
        assert not a.matches(b)
        assert not ExecutionResult({}, {"x": 1.0}).matches(ExecutionResult({}, {"x": 2.0}))
        nan = ExecutionResult(memory={}, live_out={"acc0": float("nan")})
        assert not nan.matches(ExecutionResult(memory={}, live_out={"acc0": 1.0}))
        assert not nan.matches(ExecutionResult(memory={}, live_out={}))

    def test_signed_zeros_still_match(self):
        a = ExecutionResult(memory={8: 0.0}, live_out={"x": float("nan")})
        b = ExecutionResult(memory={8: -0.0}, live_out={"x": float("nan")})
        assert a.matches(b)


#: A 41-op generated loop with one recurrence whose live-out ``acc0``
#: overflows to NaN in both the sequential and the pipelined execution.
NAN_LIVE_OUT_TOKEN = (
    "eNqtVt1ugyAYfReuuRBkavsqjTFUcTOz2gB2W5q--7Clgp0IJrv7Ss853698XAH7"
    "lpwWFTsLsD_kENQ9P1EJ9giCruCsFA-TnhjYg3fWkSKOAQT9HX8FRyrGPyjnkTr9"
    "bLpK_Wp7Wo2YuhZMSWUQCMmbit3Nr6aSH8q6QZuNnGxMDJ1MdDKnYyc9cjrX-PpE"
    "q5Eg-Jjr4QAutAUQ51Bb0Wg13UVBSgzyPIxqCE-dOIAaW-inRdZ5fx2RlYDFcFxJ"
    "9W0OXoowncDpS1xDuwLO_ODMCV6KA0VW1NAcehNIJnTijwkho423pKCIa5Ho7sSm"
    "abtVdY2PDB6FjBOySpPYprdKKHV6Whoh21HAXCBi4GRjoV71F8Oxkt35k8XRJnUL"
    "jnGouknEWx1shg6T_4cnzugXk03d6ovZWvJmKHDAyNnMbKMn8-HFKOi6RNa9bO4_"
    "vAu5o61Leq21S9W0fPkCfYImvKlmHNIIG2951Y2oGiFpV7L7ctc6ZdurdQqBWvqP"
    "tTnX01-G3rn9IK2FL2TP2cvSnTdLVdb3ClCSaIOkStAhqY7PlDfy5_GiUYhzUfZD"
    "N75qouj2C9eMsrs"
)


def test_nan_live_out_passes_the_functional_oracle():
    cell = Cell.make("fuzz:" + NAN_LIVE_OUT_TOKEN, "sgi", seed=0, oracle=True)
    result = execute_cell(cell.to_dict(), in_worker=False)
    assert result["success"]
    assert result["funcsim_ok"] is True


class TestEmittedCode:
    def test_kernel_instance_count(self, machine):
        loop = build_sdot(machine)
        res = pipeline_loop(loop, machine)
        code = emit_pipelined_code(res.schedule, res.allocation)
        body_lines = [l for l in code.kernel if not l.strip().endswith(":")]
        assert len(body_lines) == res.allocation.kmin * loop.n_ops

    def test_fill_and_drain_nonempty_when_overlapped(self, machine):
        loop = build_sdot(machine)
        res = pipeline_loop(loop, machine)
        code = emit_pipelined_code(res.schedule, res.allocation)
        assert res.schedule.n_stages > 1
        assert code.fill_instructions > 0
        assert code.drain_instructions > 0

    def test_listing_mentions_physical_registers(self, machine):
        loop = build_daxpy(machine)
        res = pipeline_loop(loop, machine)
        listing = emit_pipelined_code(res.schedule, res.allocation).listing()
        assert "$f" in listing
        assert "kernel" in listing
