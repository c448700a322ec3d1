"""The fuzzing loop: generate, execute, judge, minimize, record.

Each batch draws loops three ways — fresh :func:`random_spec` seeds,
mutations of corpus members, structure-aware crossover of two members —
fans every loop's per-scheduler cells out over the parallel
:mod:`repro.exec` engine, applies the layered oracle, and folds the
per-cell :mod:`repro.obs` counters into an AFL-style coverage signature:
a loop joins the in-memory corpus only when it exercised search behaviour
(a new prune reason, a new magnitude of B&B nodes or simplex iterations)
no earlier loop did.

Any oracle violation is minimized with :mod:`repro.fuzz.minimize` and
written into the checked-in ``tests/fuzz_corpus/`` (deduplicated by
(kind, scheduler, leading detail token) so one root cause yields one
reproducer).  Result caching is disabled: every generated loop is new, so
a cache could only cost I/O.

Everything is deterministic for a fixed ``(seed, batches-executed)``
prefix: one ``random.Random(seed)`` drives generation, and cell results
are jobs-count-independent by repro.exec's design.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..exec.cells import Cell, CellResult
from ..exec.engine import ExecEngine
from ..obs import counter_signature
from ..workloads.generators import GeneratorConfig, random_spec
from ..workloads.mutate import LoopSpec, crossover, mutate, normalize
from .corpus import DEFAULT_CORPUS_DIR, CorpusEntry, entry_name, load_entries, write_entry
from .inject import INJECTIONS
from .minimize import minimize_spec
from .oracle import Violation, check_results, evaluate_spec, spec_cells

LogFn = Callable[[str], None]

#: Loops per batch per worker, counting at least two workers: each
#: engine.run() pays a fresh pool spin-up (workers re-import the
#: scheduling stack), so a batch must be large enough to amortize it.
BATCH_PER_JOB = 12
#: Oracle evaluations the minimizer may spend on one finding.
MINIMIZE_BUDGET = 120


@dataclass
class FuzzConfig:
    """Knobs of one fuzzing session."""

    seconds: float = 60.0
    jobs: int = 1
    seed: int = 0
    # The session default; ``fuzz_main``'s backend-agreement oracle adds
    # the portfolio.
    schedulers: Tuple[str, ...] = ("sgi", "most", "rau")
    max_ops: int = 16  # corpus-admission cap on generated loop size
    cell_timeout: float = 20.0
    inject: Optional[str] = None  # seeded fault name (see fuzz.inject)
    corpus_dir: str = DEFAULT_CORPUS_DIR
    write: bool = True  # write minimized reproducers into corpus_dir
    findings_dir: Optional[str] = None  # extra copy of new entries (CI artifacts)
    max_loops: Optional[int] = None  # stop early after N loops (tests)

    def __post_init__(self) -> None:
        if self.inject is not None and self.inject not in INJECTIONS:
            raise ValueError(
                f"unknown injection {self.inject!r} "
                f"(known: {', '.join(sorted(INJECTIONS))})"
            )


@dataclass
class FuzzStats:
    loops: int = 0
    cells: int = 0
    batches: int = 0
    violations: int = 0
    timeouts: int = 0
    gave_up: int = 0
    coverage_keys: int = 0
    corpus_size: int = 0
    wall_seconds: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        return dict(self.__dict__)


@dataclass
class Finding:
    """One deduplicated oracle violation and what became of it."""

    violation: Violation
    spec: LoopSpec
    minimized: Optional[LoopSpec] = None
    evaluations: int = 0
    entry_path: Optional[str] = None
    reproduced: bool = True  # predicate held on the originating spec


@dataclass
class FuzzReport:
    stats: FuzzStats = field(default_factory=FuzzStats)
    findings: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No violations — or, under injection, every finding minimized."""
        return self.stats.violations == 0


def _seed_corpus(config: FuzzConfig, rng: random.Random) -> List[LoopSpec]:
    """Fresh random specs plus every checked-in reproducer's spec."""
    corpus: List[LoopSpec] = []
    for k in range(8):
        corpus.append(_fresh_spec(config, rng, tag=f"seed{k}"))
    for entry in load_entries(config.corpus_dir):
        spec = normalize(entry.spec)
        if spec.n_ops <= config.max_ops:
            corpus.append(spec)
    return corpus


def _fresh_spec(config: FuzzConfig, rng: random.Random, tag: str) -> LoopSpec:
    shape = GeneratorConfig(
        n_compute=rng.randrange(0, max(2, config.max_ops - 6)),
        n_streams=rng.randrange(0, 5),
        n_stores=rng.randrange(0, 3),
        n_recurrences=rng.randrange(0, 3),
        p_fmadd=rng.choice([0.0, 0.25, 0.5]),
        p_fdiv=rng.choice([0.0, 0.0, 0.1]),
        p_indirect=rng.choice([0.0, 0.0, 0.2]),
        trip_count=rng.choice([8, 16, 64]),
    )
    spec = random_spec(rng.randrange(1 << 30), shape, name=f"fz_{tag}", rng=rng)
    return normalize(spec)


def _next_spec(
    config: FuzzConfig, rng: random.Random, corpus: Sequence[LoopSpec], counter: int
) -> LoopSpec:
    roll = rng.random()
    tag = f"{counter:06d}"
    if roll < 0.35 or not corpus:
        return _fresh_spec(config, rng, tag)
    if roll < 0.8 or len(corpus) < 2:
        parent = rng.choice(list(corpus))
        spec = mutate(parent, rng, n=rng.randrange(1, 4))
    else:
        spec = crossover(rng.choice(list(corpus)), rng.choice(list(corpus)), rng)
    return normalize(
        LoopSpec(
            name=f"fz_{tag}",
            ops=spec.ops,
            n_recs=spec.n_recs,
            extra_deps=spec.extra_deps,
            trip_count=spec.trip_count,
            parity=spec.parity,
        )
    )


def _dedup_key(violation: Violation) -> Tuple[str, str, str]:
    head = violation.detail.split(" ", 1)[0].rstrip(":")[:16]
    if head.isdigit():
        head = ""  # a count (funcsim diff size) is not a root-cause marker
    return (violation.kind, violation.scheduler, head)


def _minimal_schedulers(violation: Violation) -> Tuple[str, ...]:
    """The smallest scheduler set that can re-witness a violation."""
    if violation.kind == "optimality":
        return ("sgi", violation.scheduler)
    return (violation.scheduler,)


def _record_finding(
    config: FuzzConfig, spec: LoopSpec, violation: Violation, log: LogFn
) -> Finding:
    """Minimize one violation and (when reproducible) write its entry."""
    from ..exec.hashing import fingerprint_loop

    schedulers = _minimal_schedulers(violation)

    def reproduces(candidate: LoopSpec) -> bool:
        verdict = evaluate_spec(
            candidate, schedulers, seed=config.seed,
            timeout=config.cell_timeout, inject=config.inject,
        )
        return any(
            v.kind == violation.kind and v.scheduler == violation.scheduler
            for v in verdict.violations
        )

    minimized, evaluations = minimize_spec(
        spec, reproduces, max_evaluations=MINIMIZE_BUDGET
    )
    finding = Finding(violation=violation, spec=spec, minimized=minimized,
                      evaluations=evaluations)
    if minimized is spec and not reproduces(spec):
        # Flaky (e.g. deadline-dependent): report it, but a corpus entry
        # that does not replay would only poison the regression suite.
        finding.reproduced = False
        log(f"  finding {violation.kind}/{violation.scheduler} did not "
            f"reproduce inline; not recorded")
        return finding

    fingerprint = fingerprint_loop(minimized.build())
    expect = "violation"
    if config.inject:
        # Under a seeded fault the loop itself should be healthy; make
        # sure, so the entry replays clean without the injection.
        clean = evaluate_spec(minimized, schedulers, seed=config.seed,
                              timeout=config.cell_timeout)
        expect = "clean" if not clean.violations else "violation"
    entry = CorpusEntry(
        name=entry_name(violation, fingerprint, config.inject),
        spec=minimized,
        expect=expect,
        violation=violation,
        injected_fault=config.inject,
        schedulers=schedulers,
        seed=config.seed,
        fingerprint=fingerprint,
        n_ops=minimized.n_ops,
        note=f"minimized from {spec.n_ops} ops in {evaluations} evaluations",
    )
    if config.write:
        finding.entry_path = write_entry(config.corpus_dir, entry)
        if config.findings_dir:
            write_entry(config.findings_dir, entry)
        log(f"  reproducer: {finding.entry_path} "
            f"({spec.n_ops} -> {minimized.n_ops} ops, {evaluations} evals)")
    return finding


def run_fuzz(config: FuzzConfig, log: Optional[LogFn] = None) -> FuzzReport:
    """Run one fuzzing session; returns stats and (minimized) findings."""
    log = log or (lambda message: None)
    rng = random.Random(config.seed)
    engine = ExecEngine(jobs=config.jobs, cache=None,
                        default_timeout=config.cell_timeout)
    report = FuzzReport()
    stats = report.stats
    corpus = _seed_corpus(config, rng)
    coverage: set = set()
    seen_findings: set = set()
    batch_size = BATCH_PER_JOB * max(2, config.jobs)
    deadline = time.monotonic() + config.seconds
    counter = 0

    if config.inject:
        log(f"injection armed: {config.inject} — {INJECTIONS[config.inject]}")

    while time.monotonic() < deadline:
        if config.max_loops is not None and stats.loops >= config.max_loops:
            break
        specs: List[LoopSpec] = []
        cells: List[Cell] = []
        by_loop_key: Dict[str, LoopSpec] = {}
        for _ in range(batch_size):
            if config.max_loops is not None and stats.loops + len(specs) >= config.max_loops:
                break
            spec = _next_spec(config, rng, corpus, counter)
            counter += 1
            spec_cell_list = spec_cells(
                spec, config.schedulers, seed=config.seed,
                timeout=config.cell_timeout, inject=config.inject, trace=True,
            )
            specs.append(spec)
            by_loop_key[spec_cell_list[0].loop] = spec
            cells.extend(spec_cell_list)
        if not specs:
            break

        results = engine.run(cells)
        stats.batches += 1
        grouped: Dict[str, Dict[str, CellResult]] = {}
        for cell, result in results.items():
            grouped.setdefault(cell.loop, {})[cell.scheduler] = result
            stats.cells += 1
            if result.timeout:
                stats.timeouts += 1
            elif not result.success and result.error is None:
                stats.gave_up += 1

        for loop_key, by_scheduler in grouped.items():
            spec = by_loop_key[loop_key]
            stats.loops += 1
            violations = check_results(by_scheduler)
            if violations:
                stats.violations += len(violations)
                for violation in violations:
                    key = _dedup_key(violation)
                    if key in seen_findings:
                        continue
                    seen_findings.add(key)
                    log(f"VIOLATION {violation.kind} [{violation.scheduler}] "
                        f"on {spec.name} ({spec.n_ops} ops): {violation.detail}")
                    report.findings.append(
                        _record_finding(config, spec, violation, log))
                continue
            # Coverage admission: did this loop exercise new search behaviour?
            signature = set()
            for scheduler, result in by_scheduler.items():
                signature |= counter_signature(result.obs, prefix=f"{scheduler}.")
            fresh_keys = signature - coverage
            if fresh_keys and spec.n_ops <= config.max_ops:
                coverage |= fresh_keys
                corpus.append(spec)

        stats.coverage_keys = len(coverage)
        stats.corpus_size = len(corpus)
        elapsed = config.seconds - (deadline - time.monotonic())
        rate = stats.loops / elapsed if elapsed > 0 else 0.0
        log(f"[{elapsed:6.1f}s] loops={stats.loops} ({rate:.1f}/s) "
            f"cells={stats.cells} coverage={stats.coverage_keys} "
            f"corpus={stats.corpus_size} violations={stats.violations} "
            f"timeouts={stats.timeouts}")

    stats.wall_seconds = config.seconds - max(0.0, deadline - time.monotonic())
    return report


def fuzz_main(config: FuzzConfig, oracle: Optional[str] = None) -> int:
    """``python -m repro fuzz``: one session, its findings minimized.

    The exit status encodes the session's meaning: without ``inject``, any
    finding is a live bug and the exit code is non-zero; under ``inject``
    the seeded fault *must* be found (a calibration run of the oracle), so
    zero findings is the failure.  ``oracle="backend-agreement"`` adds the
    portfolio, whose cross-checked cell is that oracle.
    """
    if oracle == "backend-agreement" and "portfolio" not in config.schedulers:
        config = replace(config, schedulers=(*config.schedulers, "portfolio"))
    report = run_fuzz(config, log=print)
    stats = report.stats
    print(
        f"\n{stats.loops} loops ({stats.cells} cells) in "
        f"{stats.wall_seconds:.1f}s: {stats.violations} violations, "
        f"{len(report.findings)} distinct findings, "
        f"coverage {stats.coverage_keys} keys, corpus {stats.corpus_size}"
    )
    if config.inject:
        if not any(f.reproduced for f in report.findings):
            print(f"injected fault {config.inject!r} was NOT caught", file=sys.stderr)
            return 1
        print(f"injected fault {config.inject!r} caught and minimized")
        return 0
    return 1 if report.findings else 0
