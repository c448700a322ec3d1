# Developer entry points.  Everything runs on the stock toolchain;
# `lint` upgrades gracefully when ruff/mypy are installed.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-verify lint verify-corpus bench bench-quick bench-baseline \
        bench-tests bench-micro trace-smoke explain analyze diff-strict report \
        report-smoke fuzz fuzz-smoke portfolio-smoke serve serve-smoke \
        serve-baseline trend history-seed e2e-smoke ci

test:
	$(PYTHON) -m pytest -x -q

# Just the repro.verify subsystem tests (marker registered in pyproject.toml).
test-verify:
	$(PYTHON) -m pytest -q -m verify

# Static lint: ruff + mypy when available, otherwise a compile-only check so
# the target is still meaningful on machines without the dev extras.  The
# determinism lint (repro.analyze.codelint) needs only the stdlib and
# always runs: unordered iteration or ambient randomness anywhere near
# the schedulers would make certificates irreproducible.
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then \
		echo "ruff check src tests"; ruff check src tests; \
	else \
		echo "ruff not installed; falling back to compileall"; \
		$(PYTHON) -m compileall -q src tests; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		echo "mypy src/repro/verify src/repro/analyze"; \
		mypy src/repro/verify src/repro/analyze; \
	else \
		echo "mypy not installed; skipped"; \
	fi
	$(PYTHON) -m repro.analyze.codelint src/repro

# Sweep every workload corpus through every registered pipeliner and verify
# every schedule, allocation and emitted listing (exits non-zero on any
# ERROR).  recbound carries the register-bound portfolio schedules.
verify-corpus:
	$(PYTHON) -m repro verify livermore
	$(PYTHON) -m repro verify spec92
	$(PYTHON) -m repro verify recbound

# The full timed (loop × scheduler) grid, emitted as
# benchmarks/output/BENCH_pipeline.json (cached under .exec-cache/).
bench:
	$(PYTHON) -m repro bench --jobs 4

# The CI smoke lane: Livermore only, tighter solver budget, then a
# warn-only comparison against the committed baseline.
bench-quick:
	$(PYTHON) -m repro bench --quick --jobs 4
	$(PYTHON) -m repro diff benchmarks/baseline benchmarks/output

# Refresh the committed baseline from a clean (uncached) quick run.  Run
# after intentional scheduler changes; commit the result and mention the
# cause in the commit message (see EXPERIMENTS.md).
bench-baseline:
	$(PYTHON) -m repro bench --quick --jobs 4 --no-cache
	cp benchmarks/output/BENCH_pipeline.json benchmarks/baseline/BENCH_pipeline.json
	@echo "baseline refreshed; review 'git diff benchmarks/baseline' before committing"

# The original pytest-based benchmark suite (paper-shape assertions).
bench-tests:
	$(PYTHON) -m pytest benchmarks -q

# The perf CI lane: pinned-seed hot-path microbenchmarks (MRT probing,
# distance tables, one B&B search) gated against the committed
# benchmarks/baseline/BENCH_micro.json (warn >1.5x, fail >3x).  Refresh
# the baseline after intentional perf changes with
# `python benchmarks/test_micro_hotpaths.py --update-baseline`.
bench-micro:
	$(PYTHON) -m pytest benchmarks/test_micro_hotpaths.py -q

# Search-effort tracing smoke: three Livermore loops through every
# registered pipeliner with the repro.obs recorder on; --check asserts the JSONL
# spools and the merged Chrome trace parse and nest correctly.
trace-smoke:
	$(PYTHON) -m repro trace livermore --limit 3 --check --trace-dir benchmarks/output/trace

# II-gap attribution over the full Livermore corpus: which constraint
# (recurrence, resource, register pressure, bank pairing, search budget)
# binds each loop's achieved II, per scheduler.
explain:
	$(PYTHON) -m repro explain livermore

# Certified II lower bounds over every corpus: derive the refined bounds,
# validate every shipped certificate with the independent checker, and
# cross-check each scheduler's achieved II against the certified floor
# (exits non-zero on a checker failure or a bound contradiction).
analyze:
	$(PYTHON) -m repro analyze livermore --check
	$(PYTHON) -m repro analyze spec92 --check
	$(PYTHON) -m repro analyze recbound --check

# The CI regression gate: attributed diff of the latest bench output
# against the committed baseline; exits non-zero on quality regressions.
diff-strict:
	$(PYTHON) -m repro diff benchmarks/baseline benchmarks/output --strict

# The full dashboard: figure tables, per-loop II explanations, bench diff.
report:
	$(PYTHON) -m repro report --html --check

# CI's dashboard smoke: three loops, no experiment tables, validated HTML.
report-smoke:
	$(PYTHON) -m repro report --html --corpus livermore --limit 3 \
		--experiments none --output benchmarks/output/report.html --check

# Statistical trend verdicts over the run-history store: every metric
# series of the last 20 stored runs classified as stable / noisy / drift
# / step_change, changepoints attributed to commit ranges.  Warn-only
# here (history depth varies between checkouts); `repro diff --trend`
# is the gate that escalates a fresh step_change to a regression.
trend:
	$(PYTHON) -m repro trend pipeline
	$(PYTHON) -m repro trend service
	$(PYTHON) -m repro trend micro

# (Re)seed the run-history store from the committed baselines so trend
# verdicts have a run zero on a fresh checkout.  Appends — never
# overwrites — so it is safe on a populated store.
history-seed:
	$(PYTHON) -c "import pathlib; \
		from repro.obs.history import seed_from_baselines; \
		records = seed_from_baselines(pathlib.Path('benchmarks/baseline'), \
			pathlib.Path('benchmarks/history')); \
		print('\n'.join(str(r) for r in records) or 'nothing to seed')"

# Coverage-guided differential fuzzing of sgi, most and rau.  Any
# oracle violation is minimized into tests/fuzz_corpus/ and replayed by
# tests/test_fuzz_corpus.py forever after.
fuzz:
	$(PYTHON) -m repro fuzz --seconds 300 --jobs 4

# The CI fuzzing lane: 60 seconds, deterministic seed, new reproducers
# land in benchmarks/output/fuzz-findings for artifact upload.
fuzz-smoke:
	$(PYTHON) -m repro fuzz --seconds 60 --jobs 2 --seed 0 \
		--findings-dir benchmarks/output/fuzz-findings

# The backend-portfolio smoke lane: run the quick grid (portfolio rides
# in the default scheduler set with cross-check on), gate it against the
# committed baseline, and require a contradiction-free probe trail —
# zero cross-backend disagreements and a witness behind every sat.
portfolio-smoke:
	$(PYTHON) -m repro bench --quick --jobs 4 --schedulers portfolio
	$(PYTHON) -c "import json, sys; \
		bench = json.load(open('benchmarks/output/BENCH_pipeline.json')); \
		totals = bench['totals']; \
		probes = totals.get('probes', 0); \
		bad = totals.get('disagreements', 0); \
		print(f'portfolio probes={probes} disagreements={bad}'); \
		sys.exit(1 if bad or not probes else 0)"
	$(PYTHON) -m repro bench --quick --jobs 4
	$(PYTHON) -m repro diff benchmarks/baseline benchmarks/output --strict

# The scheduling daemon on the default TCP port (ctrl-C drains gracefully).
serve:
	$(PYTHON) -m repro serve --port 7996 --jobs 4

# The serving smoke lane: boot an in-process daemon, replay the quick
# grid + committed fuzz corpus through the NDJSON wire protocol (a warm
# phase that solves every distinct cell, then a cache-served replay at
# concurrency 16), require a clean pass — zero protocol/cell/verify
# errors, >=50% cache hits — plus answers bit-identical to the direct
# exec engine, then gate BENCH_service.json against the committed
# baseline (quality fields strict, latency warn-only).
serve-smoke:
	$(PYTHON) -m repro serve --selftest --jobs 2 --check-equivalence
	$(PYTHON) -m repro diff benchmarks/baseline benchmarks/output --name service --strict

# Refresh the committed service baseline from a clean selftest run.
serve-baseline:
	$(PYTHON) -m repro serve --selftest --jobs 2
	cp benchmarks/output/BENCH_service.json benchmarks/baseline/BENCH_service.json
	@echo "service baseline refreshed; review 'git diff benchmarks/baseline' before committing"

# The end-to-end benchmark's own self-tests (workload builders, checks,
# statistics, the serve load driver).
e2e-smoke:
	$(PYTHON) -m pytest benchmarks/e2e -q

# Everything CI runs, in CI's order.
ci: lint test verify-corpus analyze bench-quick trace-smoke report-smoke \
	diff-strict portfolio-smoke bench-micro fuzz-smoke serve-smoke trend \
	e2e-smoke
