"""Experiment drivers: one per table/figure of the paper's evaluation.

Every experiment returns an :class:`ExperimentResult` whose ``table``
reproduces the figure's rows and whose ``chart`` renders the same data as
the paper's horizontal bar charts.  Absolute numbers differ from the paper
(our substrate is a simulator, not a 75 MHz Power Challenge); the *shape*
— who wins, by roughly what factor — is the reproduction target, and
EXPERIMENTS.md records both sides.

Since the ``repro.exec`` rewire, experiments are two-phase: they first
*enumerate* every (loop × scheduler × options) cell they need, hand the
whole batch to the parallel engine (``jobs``/``cache_dir`` on
:class:`ExperimentConfig`), then assemble tables from the returned
measurements.  Scheduling work is therefore fanned out, deadline-guarded
and cached; a re-run only re-solves cells whose loop IR, options or code
changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.driver import PipelineResult
from ..exec.cache import ScheduleCache
from ..exec.cells import Cell, CellResult
from ..exec.runner import ExecEngine
from ..ir.loop import Loop
from ..machine.descriptions import MachineDescription, r8000
from ..most.scheduler import MostOptions
from ..pipeline.overhead import pipeline_overhead
from ..sim.layout import DataLayout
from ..sim.perf import simulate_pipelined, simulate_sequential_body
from ..workloads.livermore import LONG_TRIPS, SHORT_TRIPS, livermore_kernels
from ..workloads.spec92 import Benchmark, spec92_suite
from .metrics import geometric_mean, weighted_relative_time
from .report import Table, bar_chart


@dataclass
class ExperimentConfig:
    """Shared knobs for all experiments."""

    machine: Optional[MachineDescription] = None
    seed: int = 0
    # ILP budget per loop; the paper used 3 minutes, benchmarks use less.
    most_time_limit: float = 10.0
    most_engine: str = "scipy"
    most_priority_branching: bool = False  # the bnb engine uses it; HiGHS ignores
    most_max_ops: int = 61  # the largest optimal schedule the study found
    # Parallel execution and caching (repro.exec).
    jobs: int = 1
    cache_dir: Optional[str] = None  # None = no on-disk cache
    cell_timeout: Optional[float] = None  # hard per-cell deadline (worker-side)
    progress: Optional[Callable[[int, int, Cell, CellResult], None]] = None

    def resolved_machine(self) -> MachineDescription:
        return self.machine if self.machine is not None else r8000()

    def most_options(self, fallback: bool = True) -> MostOptions:
        return MostOptions(
            time_limit=self.most_time_limit,
            engine=self.most_engine,
            priority_branching=self.most_priority_branching,
            max_ops=self.most_max_ops,
            fallback=fallback,
        )

    def most_cell_options(self, fallback: bool = True, **overrides: Any) -> Dict[str, Any]:
        """The MOST options of :meth:`most_options` as a cell-options dict."""
        options: Dict[str, Any] = {
            "time_limit": self.most_time_limit,
            "engine": self.most_engine,
            "priority_branching": self.most_priority_branching,
            "max_ops": self.most_max_ops,
            "fallback": fallback,
        }
        options.update(overrides)
        return options

    def engine(self) -> ExecEngine:
        """The cell engine every experiment runs its batch through."""
        return ExecEngine(
            jobs=self.jobs,
            cache=ScheduleCache(self.cache_dir) if self.cache_dir else None,
            default_timeout=self.cell_timeout,
            progress=self.progress,
            machine=self.resolved_machine(),
        )

    def run_cells(self, cells: Sequence[Cell]) -> Dict[Cell, CellResult]:
        return self.engine().run(cells)


@dataclass
class ExperimentResult:
    name: str
    table: Table
    chart: str = ""
    summary: Dict[str, float] = field(default_factory=dict)
    # Every cell measurement behind the table, for BENCH_<name>.json emission.
    cells: List[CellResult] = field(default_factory=list)

    def formatted(self) -> str:
        parts = [self.table.formatted()]
        if self.chart:
            parts.append(self.chart)
        if self.summary:
            parts.append(
                "summary: " + ", ".join(f"{k}={v:.4g}" for k, v in self.summary.items())
            )
        return "\n\n".join(parts)


# ----------------------------------------------------------------------
# Shared machinery
# ----------------------------------------------------------------------
def _pipelined_cycles(
    result: PipelineResult,
    machine: MachineDescription,
    trips: Optional[int] = None,
    seed: int = 0,
) -> float:
    """Simulated cycles of a heuristic/ILP pipelining result (with the
    fill/drain overhead included).  Retained for direct driver results;
    batched experiments read the same quantity off their cells."""
    if not result.success:
        raise ValueError(f"loop {result.original.name!r} failed to pipeline")
    layout = DataLayout(result.loop, trip_count=trips or result.loop.trip_count, seed=seed)
    overhead = pipeline_overhead(result.schedule, result.allocation, machine)
    report = simulate_pipelined(
        result.schedule, layout, machine, trips=trips, overhead=overhead
    )
    return report.cycles


def _baseline_cycles(
    loop: Loop, machine: MachineDescription, trips: Optional[int] = None, seed: int = 0
) -> float:
    from ..baseline.list_scheduler import list_schedule

    schedule = list_schedule(loop, machine)
    layout = DataLayout(loop, trip_count=trips or loop.trip_count, seed=seed)
    return simulate_sequential_body(schedule, layout, machine, trips=trips).cycles


def _benchmark_relative_time(
    bench: Benchmark,
    cycles: Dict[str, float],
    reference: Dict[str, float],
) -> float:
    """T/T_ref for one benchmark from per-loop cycle counts."""
    return weighted_relative_time(
        [loop.weight for loop in bench.loops],
        [cycles[loop.name] for loop in bench.loops],
        [reference[loop.name] for loop in bench.loops],
    )


def _spec_key(bench: Benchmark, loop: Loop) -> str:
    return f"spec92:{bench.name}/{loop.name}"


def _cycles(result: CellResult, trips: Optional[int] = None) -> float:
    """Simulated cycles of a cell, insisting the cell actually succeeded."""
    if result.error is not None:
        raise RuntimeError(
            f"cell {result.loop} × {result.scheduler} failed:\n{result.error}"
        )
    if not result.success:
        raise ValueError(f"loop {result.loop!r} failed to pipeline ({result.scheduler})")
    return result.cycles(trips)


class _Batch:
    """Cell batch builder: experiments enumerate, then run, then look up."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.cells: Dict[Tuple, Cell] = {}
        self.results: Dict[Cell, CellResult] = {}

    def add(
        self,
        tag: Tuple,
        loop_key: str,
        scheduler: str,
        options: Optional[Dict[str, Any]] = None,
        trips: Tuple[int, ...] = (),
    ) -> None:
        self.cells[tag] = Cell.make(
            loop_key,
            scheduler,
            options,
            trips=trips,
            seed=self.config.seed,
            timeout=self.config.cell_timeout,
        )

    def run(self) -> None:
        self.results = self.config.run_cells(list(self.cells.values()))

    def __getitem__(self, tag: Tuple) -> CellResult:
        return self.results[self.cells[tag]]

    def cycles(self, tag: Tuple, trips: Optional[int] = None) -> float:
        return _cycles(self[tag], trips)

    def all_results(self) -> List[CellResult]:
        return list(self.results.values())


# ----------------------------------------------------------------------
# Figure 2 — software pipelining on vs off across SPEC92 fp
# ----------------------------------------------------------------------
def fig2_pipelining_effectiveness(
    config: Optional[ExperimentConfig] = None,
) -> ExperimentResult:
    """Pipelined vs list-scheduled performance per benchmark (Figure 2).

    The paper reports SPECmarks with the pipeliner enabled and disabled;
    we report the speedup of enabled over disabled — the figure's visual
    content.  Paper: >35% geomean improvement, every benchmark >= 1.0x.
    """
    config = config or ExperimentConfig()
    machine = config.resolved_machine()
    suite = spec92_suite(machine)
    batch = _Batch(config)
    for bench in suite:
        for loop in bench.loops:
            batch.add(("sgi", loop.name), _spec_key(bench, loop), "sgi")
            batch.add(("base", loop.name), _spec_key(bench, loop), "baseline")
    batch.run()

    table = Table(
        "Figure 2: software pipelining enabled vs disabled (SPEC92 fp)",
        ["benchmark", "pipelined cyc/it (wtd)", "baseline cyc/it (wtd)", "speedup"],
    )
    speedups: List[Tuple[str, float]] = []
    for bench in suite:
        pipe_cycles = {l.name: batch.cycles(("sgi", l.name)) for l in bench.loops}
        base_cycles = {l.name: batch.cycles(("base", l.name)) for l in bench.loops}
        rel = _benchmark_relative_time(bench, pipe_cycles, base_cycles)
        speedup_val = 1.0 / rel
        trips = {loop.name: loop.trip_count for loop in bench.loops}
        wtd_pipe = sum(
            loop.weight * pipe_cycles[loop.name] / trips[loop.name] for loop in bench.loops
        )
        wtd_base = sum(
            loop.weight * base_cycles[loop.name] / trips[loop.name] for loop in bench.loops
        )
        table.add(bench.name, wtd_pipe, wtd_base, speedup_val)
        speedups.append((bench.name, speedup_val))
    gmean = geometric_mean([s for _, s in speedups])
    table.add("geometric mean", "", "", gmean)
    chart = bar_chart(
        "speedup from software pipelining (Figure 2)", speedups, reference=1.0, unit="x"
    )
    return ExperimentResult(
        name="fig2",
        table=table,
        cells=batch.all_results(),
        chart=chart,
        summary={"geomean_speedup": gmean, "improvement_pct": (gmean - 1.0) * 100},
    )


# ----------------------------------------------------------------------
# Figure 3 — single priority heuristic vs all four
# ----------------------------------------------------------------------
def fig3_priority_heuristics(
    config: Optional[ExperimentConfig] = None,
) -> ExperimentResult:
    """Each scheduling priority alone, as a ratio over the all-four
    configuration (Figure 3).  Paper: no single heuristic wins everywhere;
    three of the four are needed to win at least one benchmark."""
    config = config or ExperimentConfig()
    machine = config.resolved_machine()
    suite = spec92_suite(machine)
    orders = ("FDMS", "FDNMS", "HMS", "RHMS")
    batch = _Batch(config)
    for bench in suite:
        for loop in bench.loops:
            key = _spec_key(bench, loop)
            batch.add(("ref", loop.name), key, "sgi")
            batch.add(("base", loop.name), key, "baseline")
            for order in orders:
                batch.add((order, loop.name), key, "sgi", {"orders": [order]})
    batch.run()

    table = Table(
        "Figure 3: single priority-list heuristic vs all four (ratio, higher is better)",
        ["benchmark"] + list(orders),
    )
    best_counts = {name: 0 for name in orders}
    rows: Dict[str, List[float]] = {}
    for bench in suite:
        reference = {l.name: batch.cycles(("ref", l.name)) for l in bench.loops}
        ratios: List[float] = []
        for order in orders:
            cycles: Dict[str, float] = {}
            for loop in bench.loops:
                res = batch[(order, loop.name)]
                if res.success:
                    cycles[loop.name] = _cycles(res)
                else:
                    # A heuristic that cannot schedule falls back to the
                    # list scheduler, as the compiler would.
                    cycles[loop.name] = batch.cycles(("base", loop.name))
            rel = _benchmark_relative_time(bench, cycles, reference)
            ratios.append(1.0 / rel)
        rows[bench.name] = ratios
        table.add(bench.name, *ratios)
        best = max(range(len(orders)), key=lambda i: ratios[i])
        best_counts[orders[best]] += 1
    heuristics_needed = sum(1 for count in best_counts.values() if count > 0)
    table.notes.append(
        "per-benchmark best heuristic counts: "
        + ", ".join(f"{k}={v}" for k, v in best_counts.items())
    )
    chart = bar_chart(
        "worst single-heuristic ratio per benchmark (Figure 3)",
        [(name, min(r)) for name, r in rows.items()],
        reference=1.0,
    )
    return ExperimentResult(
        name="fig3",
        table=table,
        cells=batch.all_results(),
        chart=chart,
        summary={
            "heuristics_winning_somewhere": float(heuristics_needed),
            "min_single_ratio": min(min(r) for r in rows.values()),
        },
    )


# ----------------------------------------------------------------------
# Figure 4 — memory-bank heuristics on vs off
# ----------------------------------------------------------------------
def fig4_membank_effectiveness(
    config: Optional[ExperimentConfig] = None,
) -> ExperimentResult:
    """Memory-bank pairing enabled over disabled (Figure 4).  Paper:
    alvinn and mdljdp2 stand out; the rest sit near 1.0."""
    config = config or ExperimentConfig()
    machine = config.resolved_machine()
    suite = spec92_suite(machine)
    batch = _Batch(config)
    for bench in suite:
        for loop in bench.loops:
            key = _spec_key(bench, loop)
            batch.add(("on", loop.name), key, "sgi", {"enable_membank": True})
            batch.add(("off", loop.name), key, "sgi", {"enable_membank": False})
    batch.run()

    table = Table(
        "Figure 4: memory bank heuristics enabled / disabled (performance ratio)",
        ["benchmark", "ratio"],
    )
    entries: List[Tuple[str, float]] = []
    for bench in suite:
        on = {l.name: batch.cycles(("on", l.name)) for l in bench.loops}
        off = {l.name: batch.cycles(("off", l.name)) for l in bench.loops}
        ratio = 1.0 / _benchmark_relative_time(bench, on, off)
        table.add(bench.name, ratio)
        entries.append((bench.name, ratio))
    gmean = geometric_mean([r for _, r in entries])
    table.add("geometric mean", gmean)
    chart = bar_chart("memory-bank heuristic speedup (Figure 4)", entries, reference=1.0, unit="x")
    return ExperimentResult(
        name="fig4",
        table=table,
        cells=batch.all_results(),
        chart=chart,
        summary={"geomean": gmean, "max_ratio": max(r for _, r in entries)},
    )


# ----------------------------------------------------------------------
# Figure 5 — ILP vs heuristic, with and without bank pairing
# ----------------------------------------------------------------------
def fig5_ilp_vs_heuristic(
    config: Optional[ExperimentConfig] = None,
) -> ExperimentResult:
    """Relative performance of ILP-scheduled code over MIPSpro, against
    the heuristic both with and without its memory-bank pairing
    (Figure 5).  Paper: heuristic with pairing wins by ~8% geomean; with
    pairing disabled the two are within a few percent."""
    config = config or ExperimentConfig()
    machine = config.resolved_machine()
    suite = spec92_suite(machine)
    batch = _Batch(config)
    for bench in suite:
        for loop in bench.loops:
            key = _spec_key(bench, loop)
            batch.add(("bank", loop.name), key, "sgi", {"enable_membank": True})
            batch.add(("nobank", loop.name), key, "sgi", {"enable_membank": False})
            batch.add(("ilp", loop.name), key, "most", config.most_cell_options())
    batch.run()

    table = Table(
        "Figure 5: ILP performance relative to MIPSpro",
        ["benchmark", "vs MIPSpro+bank", "vs MIPSpro-nobank", "ILP fallbacks"],
    )
    solid: List[Tuple[str, float]] = []
    striped: List[Tuple[str, float]] = []
    for bench in suite:
        sgi_bank = {l.name: batch.cycles(("bank", l.name)) for l in bench.loops}
        sgi_nobank = {l.name: batch.cycles(("nobank", l.name)) for l in bench.loops}
        ilp = {l.name: batch.cycles(("ilp", l.name)) for l in bench.loops}
        fallbacks = sum(int(batch[("ilp", l.name)].fallback) for l in bench.loops)
        rel_bank = 1.0 / _benchmark_relative_time(bench, ilp, sgi_bank)
        rel_nobank = 1.0 / _benchmark_relative_time(bench, ilp, sgi_nobank)
        table.add(bench.name, rel_bank, rel_nobank, fallbacks)
        solid.append((bench.name, rel_bank))
        striped.append((bench.name, rel_nobank))
    gmean_bank = geometric_mean([v for _, v in solid])
    gmean_nobank = geometric_mean([v for _, v in striped])
    table.add("geometric mean", gmean_bank, gmean_nobank, "")
    chart = "\n\n".join(
        [
            bar_chart("ILP / MIPSpro+bank (Figure 5, solid)", solid, reference=1.0),
            bar_chart("ILP / MIPSpro-nobank (Figure 5, striped)", striped, reference=1.0),
        ]
    )
    return ExperimentResult(
        name="fig5",
        table=table,
        cells=batch.all_results(),
        chart=chart,
        summary={
            "geomean_vs_bank": gmean_bank,
            "heuristic_advantage_pct": (1.0 / gmean_bank - 1.0) * 100,
            "geomean_vs_nobank": gmean_nobank,
        },
    )


# ----------------------------------------------------------------------
# Figure 6 — Livermore kernels, short and long trip counts
# ----------------------------------------------------------------------
def fig6_livermore(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """ILP vs MIPSpro on each Livermore kernel at short and long trip
    counts (Figure 6).  Paper: the SGI scheduler wins nearly everywhere
    at both lengths."""
    config = config or ExperimentConfig()
    machine = config.resolved_machine()
    kernels = list(livermore_kernels(machine))
    batch = _Batch(config)
    for number, loop in enumerate(kernels, start=1):
        key = f"livermore:{loop.name}"
        trips = (SHORT_TRIPS[number], LONG_TRIPS[number])
        batch.add(("sgi", loop.name), key, "sgi", trips=trips)
        batch.add(("ilp", loop.name), key, "most", config.most_cell_options(), trips=trips)
    batch.run()

    table = Table(
        "Figure 6: ILP / MIPSpro relative performance per Livermore kernel",
        ["kernel", "short trips", "ratio@short", "long trips", "ratio@long"],
    )
    short_entries: List[Tuple[str, float]] = []
    long_entries: List[Tuple[str, float]] = []
    for number, loop in enumerate(kernels, start=1):
        short, long_ = SHORT_TRIPS[number], LONG_TRIPS[number]
        ratios = []
        for trips in (short, long_):
            sgi_c = batch.cycles(("sgi", loop.name), trips)
            ilp_c = batch.cycles(("ilp", loop.name), trips)
            ratios.append(sgi_c / ilp_c)
        table.add(loop.name, short, ratios[0], long_, ratios[1])
        short_entries.append((loop.name, ratios[0]))
        long_entries.append((loop.name, ratios[1]))
    gmean_short = geometric_mean([r for _, r in short_entries])
    gmean_long = geometric_mean([r for _, r in long_entries])
    table.add("geometric mean", "", gmean_short, "", gmean_long)
    chart = "\n\n".join(
        [
            bar_chart("ILP/MIPSpro at short trip counts (Figure 6)", short_entries, reference=1.0),
            bar_chart("ILP/MIPSpro at long trip counts (Figure 6)", long_entries, reference=1.0),
        ]
    )
    return ExperimentResult(
        name="fig6",
        table=table,
        cells=batch.all_results(),
        chart=chart,
        summary={"geomean_short": gmean_short, "geomean_long": gmean_long},
    )


# ----------------------------------------------------------------------
# Figure 7 — static quality: registers and overhead, MIPSpro minus ILP
# ----------------------------------------------------------------------
def fig7_static_quality(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Second-order static measures per Livermore loop (Figure 7):
    difference (MIPSpro - ILP) in total registers used and in pipeline
    overhead cycles.  Paper: identical IIs everywhere; the heuristic uses
    fewer registers in 15/26 loops and less overhead in 12/26; for 16
    loops the lower-overhead schedule does not use fewer registers."""
    config = config or ExperimentConfig()
    machine = config.resolved_machine()
    kernels = list(livermore_kernels(machine))
    batch = _Batch(config)
    for loop in kernels:
        key = f"livermore:{loop.name}"
        batch.add(("sgi", loop.name), key, "sgi")
        batch.add(("ilp", loop.name), key, "most", config.most_cell_options())
    batch.run()

    table = Table(
        "Figure 7: MIPSpro minus ILP, registers and overhead cycles",
        ["kernel", "II sgi", "II ilp", "d(regs)", "d(overhead)"],
    )
    reg_entries: List[Tuple[str, float]] = []
    ovh_entries: List[Tuple[str, float]] = []
    identical_ii = 0
    sgi_fewer_regs = 0
    sgi_lower_ovh = 0
    uncorrelated = 0
    n = 0
    for loop in kernels:
        sgi = batch[("sgi", loop.name)]
        ilp = batch[("ilp", loop.name)]
        sgi_regs, ilp_regs = sgi.registers_used, ilp.registers_used
        sgi_ovh, ilp_ovh = sgi.overhead_cycles, ilp.overhead_cycles
        table.add(loop.name, sgi.ii, ilp.ii, sgi_regs - ilp_regs, sgi_ovh - ilp_ovh)
        reg_entries.append((loop.name, float(sgi_regs - ilp_regs)))
        ovh_entries.append((loop.name, float(sgi_ovh - ilp_ovh)))
        n += 1
        identical_ii += int(sgi.ii == ilp.ii)
        sgi_fewer_regs += int(sgi_regs < ilp_regs)
        sgi_lower_ovh += int(sgi_ovh < ilp_ovh)
        # "There is no clear correlation between register usage and
        # overhead": count loops where the measures differ but no single
        # scheduler strictly wins both.
        reg_winner = 0 if sgi_regs == ilp_regs else (1 if sgi_regs < ilp_regs else -1)
        ovh_winner = 0 if sgi_ovh == ilp_ovh else (1 if sgi_ovh < ilp_ovh else -1)
        if (reg_winner or ovh_winner) and reg_winner != ovh_winner:
            uncorrelated += 1
    table.notes.append(
        f"identical IIs: {identical_ii}/{n}; SGI fewer regs: {sgi_fewer_regs}/{n}; "
        f"SGI lower overhead: {sgi_lower_ovh}/{n}; overhead/register winners differ: {uncorrelated}/{n}"
    )
    return ExperimentResult(
        name="fig7",
        table=table,
        cells=batch.all_results(),
        chart="",
        summary={
            "identical_ii": float(identical_ii),
            "sgi_fewer_regs": float(sgi_fewer_regs),
            "sgi_lower_overhead": float(sgi_lower_ovh),
            "uncorrelated": float(uncorrelated),
            "loops": float(n),
        },
    )


# ----------------------------------------------------------------------
# Section 4.7 — compile-speed comparison
# ----------------------------------------------------------------------
def sec47_compile_speed(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Scheduler time, heuristic vs ILP, over the SPEC92-like corpus
    (Section 4.7).  Paper: 237 s vs 67,634 s — roughly 285x.

    The measured ratio scales with the ILP's per-loop budget (the paper
    allowed 3 minutes; benchmarks allow a few seconds), so two summaries
    are reported: the total ratio, and the ratio restricted to loops the
    ILP scheduled natively (no size/time fallback) — the like-for-like
    comparison the paper's 237 s vs 67,634 s makes.

    With the exec cache enabled, timings are the ones collected when each
    cell was first solved — re-runs reproduce, not re-measure.
    """
    config = config or ExperimentConfig()
    machine = config.resolved_machine()
    suite = spec92_suite(machine)
    batch = _Batch(config)
    for bench in suite:
        for loop in bench.loops:
            key = _spec_key(bench, loop)
            batch.add(("sgi", loop.name), key, "sgi")
            batch.add(("ilp", loop.name), key, "most", config.most_cell_options())
    batch.run()

    table = Table(
        "Section 4.7: scheduler time per benchmark (seconds)",
        ["benchmark", "heuristic", "ILP", "ratio", "ILP fallbacks"],
    )
    total_sgi = 0.0
    total_ilp = 0.0
    native_sgi = 0.0
    native_ilp = 0.0
    native_ratios: List[float] = []
    for bench in suite:
        sgi_t = 0.0
        ilp_t = 0.0
        fallbacks = 0
        for loop in bench.loops:
            sgi_cell = batch[("sgi", loop.name)]
            ilp_cell = batch[("ilp", loop.name)]
            sgi_t += sgi_cell.schedule_seconds
            # The ILP's charge includes model construction, which solver
            # stats undercount: take the larger of the two measures.
            loop_ilp_t = max(ilp_cell.schedule_seconds, ilp_cell.sched_wall_seconds)
            ilp_t += loop_ilp_t
            if ilp_cell.fallback:
                fallbacks += 1
            else:
                native_sgi += sgi_cell.schedule_seconds
                native_ilp += loop_ilp_t
                native_ratios.append(loop_ilp_t / max(sgi_cell.schedule_seconds, 1e-4))
        total_sgi += sgi_t
        total_ilp += ilp_t
        table.add(
            bench.name, sgi_t, ilp_t,
            (ilp_t / sgi_t) if sgi_t else float("inf"), fallbacks,
        )
    ratio = total_ilp / total_sgi if total_sgi else float("inf")
    native_ratio = native_ilp / native_sgi if native_sgi else float("inf")
    native_geomean = geometric_mean(native_ratios) if native_ratios else float("inf")
    table.add("total", total_sgi, total_ilp, ratio, "")
    table.notes.append(
        f"loops the ILP scheduled natively: heuristic {native_sgi:.2f}s vs "
        f"ILP {native_ilp:.2f}s (sum ratio {native_ratio:.1f}x, per-loop "
        f"geomean {native_geomean:.0f}x)"
    )
    return ExperimentResult(
        name="sec47",
        table=table,
        cells=batch.all_results(),
        summary={
            "sgi_seconds": total_sgi,
            "ilp_seconds": total_ilp,
            "slowdown": ratio,
            "native_slowdown": native_ratio,
            "native_geomean": native_geomean,
        },
    )


# ----------------------------------------------------------------------
# Section 5 — scalability: largest schedulable loop
# ----------------------------------------------------------------------
def sec5_scalability(
    config: Optional[ExperimentConfig] = None,
    sizes: Sequence[int] = (16, 28, 40, 52, 64, 80, 100, 116, 132, 150),
    per_loop_budget: float = 30.0,
) -> ExperimentResult:
    """Largest loop each technique schedules within a per-loop budget
    (Section 5).  Paper: 116 operations for the heuristics vs 61 for the
    optimal schedules."""
    config = config or ExperimentConfig()
    machine = config.resolved_machine()
    batch = _Batch(config)
    ilp_options = config.most_cell_options(
        fallback=False,
        time_limit=min(config.most_time_limit, per_loop_budget),
        max_ops=10_000,  # let size be limited by time, not fiat
    )
    for size in sizes:
        key = f"scaling:{size}"
        batch.add(("sgi", size), key, "sgi")
        batch.add(("ilp", size), key, "most", ilp_options)
    batch.run()

    table = Table(
        "Section 5: scalability over loop size",
        ["~ops", "actual ops", "SGI ok", "SGI s", "ILP ok (no fallback)", "ILP s"],
    )
    largest_sgi = 0
    largest_ilp = 0
    for size in sizes:
        sgi = batch[("sgi", size)]
        ilp = batch[("ilp", size)]
        # Charge the heuristic its scheduler time, not wall time: the
        # budget should measure the search, not machine contention.
        sgi_seconds = min(sgi.sched_wall_seconds, max(sgi.schedule_seconds, 1e-4))
        sgi_ok = sgi.success and sgi_seconds <= per_loop_budget
        ilp_seconds = max(ilp.schedule_seconds, ilp.sched_wall_seconds)
        ilp_ok = ilp.success and not ilp.fallback
        if sgi_ok:
            largest_sgi = max(largest_sgi, sgi.n_ops)
        if ilp_ok:
            largest_ilp = max(largest_ilp, ilp.n_ops)
        table.add(f"scale{size}", sgi.n_ops, sgi_ok, sgi_seconds, ilp_ok, ilp_seconds)
    table.notes.append(
        f"largest scheduled: SGI {largest_sgi} ops, ILP {largest_ilp} ops"
    )
    return ExperimentResult(
        name="sec5_scalability",
        table=table,
        cells=batch.all_results(),
        summary={"largest_sgi": float(largest_sgi), "largest_ilp": float(largest_ilp)},
    )


# ----------------------------------------------------------------------
# Section 5 — II parity and the backtracking anecdote
# ----------------------------------------------------------------------
def sec5_ii_parity(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """How often the optimal technique finds a lower II than the
    heuristic, and whether raising the heuristic's backtracking limit
    equalises it (Section 5).  Paper: exactly one loop, equalised by a
    modest backtracking increase."""
    config = config or ExperimentConfig()
    machine = config.resolved_machine()
    pool: List[Tuple[str, str]] = [
        (loop.name, f"livermore:{loop.name}") for loop in livermore_kernels(machine)
    ]
    for bench in spec92_suite(machine):
        pool.extend(
            (loop.name, _spec_key(bench, loop))
            for loop in bench.loops
            if loop.n_ops <= config.most_max_ops
        )
    batch = _Batch(config)
    for name, key in pool:
        batch.add(("sgi", name), key, "sgi")
        batch.add(("ilp", name), key, "most", config.most_cell_options())
    batch.run()

    # Second phase, only for loops the ILP actually beat: the heuristic
    # with ten times the backtracking budget.
    boosted_batch = _Batch(config)
    wins: List[Tuple[str, str]] = []
    for name, key in pool:
        sgi, ilp = batch[("sgi", name)], batch[("ilp", name)]
        if not (sgi.success and ilp.success):
            continue
        if ilp.fallback or ilp.ii >= sgi.ii:
            continue
        wins.append((name, key))
        boosted_batch.add(
            ("boost", name), key, "sgi",
            {"bnb": {"max_backtracks": 4000, "max_placements": 2_500_000}},
        )
    boosted_batch.run()

    table = Table(
        "Section 5: II comparison, heuristic vs optimal",
        ["loop", "MinII", "SGI II", "ILP II", "SGI II (10x backtracking)"],
    )
    equalised = 0
    for name, key in wins:
        sgi, ilp = batch[("sgi", name)], batch[("ilp", name)]
        boosted = boosted_batch[("boost", name)]
        boosted_ii = boosted.ii if boosted.success else None
        if boosted_ii is not None and boosted_ii <= ilp.ii:
            equalised += 1
        table.add(name, sgi.min_ii, sgi.ii, ilp.ii, boosted_ii)
    if not wins:
        table.notes.append("no loop where the optimal technique beat the heuristic's II")
    return ExperimentResult(
        name="sec5_ii_parity",
        table=table,
        cells=batch.all_results() + boosted_batch.all_results(),
        summary={"ilp_ii_wins": float(len(wins)), "equalised_by_backtracking": float(equalised)},
    )


# ----------------------------------------------------------------------
# Extension — three-way showdown with iterative modulo scheduling [Rau94]
# ----------------------------------------------------------------------
def ext_rau_comparison(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Extend the showdown with the scheduler the paper's epigraph cites:
    Rau's iterative modulo scheduling.  Reports II and scheduling effort
    for all three techniques across the Livermore kernels."""
    config = config or ExperimentConfig()
    machine = config.resolved_machine()
    kernels = list(livermore_kernels(machine))
    batch = _Batch(config)
    for loop in kernels:
        key = f"livermore:{loop.name}"
        batch.add(("sgi", loop.name), key, "sgi")
        batch.add(("rau", loop.name), key, "rau")
        batch.add(("ilp", loop.name), key, "most", config.most_cell_options())
    batch.run()

    table = Table(
        "Extension: SGI branch-and-bound vs Rau94 iterative vs MOST ILP",
        ["kernel", "MinII", "SGI II", "Rau II", "ILP II", "SGI s", "Rau s", "ILP s"],
    )
    summary = {
        "rau_matches_sgi": 0.0,
        "rau_better": 0.0,
        "rau_worse": 0.0,
        "rau_seconds": 0.0,
        "sgi_seconds": 0.0,
        "ilp_seconds": 0.0,
    }
    for loop in kernels:
        sgi = batch[("sgi", loop.name)]
        rau = batch[("rau", loop.name)]
        ilp = batch[("ilp", loop.name)]
        table.add(
            loop.name,
            sgi.min_ii,
            sgi.ii,
            rau.ii,
            ilp.ii,
            sgi.schedule_seconds,
            rau.schedule_seconds,
            ilp.schedule_seconds,
        )
        if rau.ii == sgi.ii:
            summary["rau_matches_sgi"] += 1
        elif rau.ii is not None and sgi.ii is not None and rau.ii < sgi.ii:
            summary["rau_better"] += 1
        else:
            summary["rau_worse"] += 1
        summary["rau_seconds"] += rau.schedule_seconds
        summary["sgi_seconds"] += sgi.schedule_seconds
        summary["ilp_seconds"] += ilp.schedule_seconds
    return ExperimentResult(
        name="ext_rau", table=table, summary=summary, cells=batch.all_results()
    )


# ----------------------------------------------------------------------
# Extension — the §5 proposal: optimise loop overhead directly in the ILP
# ----------------------------------------------------------------------
def ext_overhead_objective(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """The paper's closing suggestion: "Perhaps an ILP formulation can be
    made that optimizes loop overhead more directly than by optimizing
    register usage."  Compares MOST with the buffer objective against
    MOST minimising the stage count, on the Figure 7 metric."""
    config = config or ExperimentConfig()
    machine = config.resolved_machine()
    kernels = list(livermore_kernels(machine))
    batch = _Batch(config)
    for loop in kernels:
        key = f"livermore:{loop.name}"
        batch.add(("buf", loop.name), key, "most", config.most_cell_options())
        batch.add(
            ("ovh", loop.name), key, "most",
            config.most_cell_options(objective="overhead"),
        )
    batch.run()

    table = Table(
        "Extension: ILP objective = buffers (paper) vs loop overhead (§5 proposal)",
        ["kernel", "II", "overhead (buffers obj)", "overhead (stage obj)", "regs b/o"],
    )
    summary = {"improved": 0.0, "unchanged": 0.0, "regressed": 0.0, "total_saved": 0.0}
    for loop in kernels:
        buf = batch[("buf", loop.name)]
        ovh = batch[("ovh", loop.name)]
        if buf.ii != ovh.ii:
            continue  # compare like with like only
        o_buf, o_ovh = buf.overhead_cycles, ovh.overhead_cycles
        regs = f"{buf.registers_used}/{ovh.registers_used}"
        table.add(loop.name, buf.ii, o_buf, o_ovh, regs)
        if o_ovh < o_buf:
            summary["improved"] += 1
        elif o_ovh == o_buf:
            summary["unchanged"] += 1
        else:
            summary["regressed"] += 1
        summary["total_saved"] += o_buf - o_ovh
    return ExperimentResult(
        name="ext_overhead", table=table, summary=summary, cells=batch.all_results()
    )
