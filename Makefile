# Developer entry points.  Everything runs on the stock toolchain;
# `lint` upgrades gracefully when ruff/mypy are installed.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-verify lint grid verify-corpus bench bench-quick cache-smoke bench-baseline \
        bench-tests bench-micro trace-smoke explain explain-smoke strict-smoke analyze \
        diff-strict report \
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
# the schedulers would make certificates irreproducible.  Every
# subcommand's parser is built and its --help printed (stdlib only, a few
# seconds), so a broken flag table fails here without the test suite.
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
	@for command in $$($(PYTHON) -c "from repro.__main__ import SUBCOMMANDS; print(*SUBCOMMANDS)"); do \
		echo "python -m repro $$command --help"; \
		$(PYTHON) -m repro $$command --help >/dev/null || exit 1; \
	done

# The one corpus grid: every workload corpus through every registered
# pipeliner under the quick preset, each cell verified, explained and
# carrying its certified bound, into benchmarks/output/BENCH_sweep_all.json
# and the result cache; fails on any cell error or violation of the
# seven-layer verdict.  verify-corpus, analyze and explain-smoke depend
# on it and read that json (in one make run the grid runs once; on a warm
# cache every cell is a hit), and the quick grid reads these cells through
# the cache, instead of solving them again.
grid:
	$(PYTHON) -m repro bench all --quick --jobs 2

# Every schedule, allocation and emitted listing of the grid, verified,
# and the grid's seven-layer verdict (crash, verify, funcsim, min_ii,
# bound, optimality, agreement): exits non-zero on any violation.  A
# reader of `make grid`'s BENCH_sweep_all.json, which `grid` first brings
# up to date with the current code.
verify-corpus: grid
	$(PYTHON) -m repro verify all

# The full timed (loop × scheduler) grid, emitted as
# benchmarks/output/BENCH_pipeline.json (cached under .exec-cache/).
bench:
	$(PYTHON) -m repro bench --jobs 4

# The CI smoke lane: Livermore and recbound, tighter solver budget, then a
# warn-only comparison against the committed baseline.  After `make grid`
# every one of its 120 cells is a cache hit.  Two workers, as in
# CI: the quick preset's wall budget decides whether rb_reg_farm x
# portfolio falls back, four workers on two cores can spend it, and the
# fallback would then be cached for cache-smoke and portfolio-smoke.
bench-quick:
	$(PYTHON) -m repro bench --quick --jobs 2
	$(PYTHON) -m repro diff benchmarks/baseline benchmarks/output

# The cache key is stable: rerun the quick grid against the cache the
# previous quick run filled (bench-quick, or CI's bench step), into a
# scratch output directory and out of the history store; every one of the
# 120 cells must hit.
cache-smoke:
	$(PYTHON) -m repro bench --quick --jobs 2 --output-dir benchmarks/output/cache-smoke
	$(PYTHON) -c "import json, sys; \
		cache = json.load(open('benchmarks/output/cache-smoke/BENCH_pipeline.json'))['cache']; \
		print('cache rerun hits=%d misses=%d' % (cache['hits'], cache['misses'])); \
		sys.exit(0 if (cache['hits'], cache['misses']) == (120, 0) else 1)"

# Refresh the committed baseline from a clean (uncached) quick run, at
# bench-quick's two workers.  Run after intentional scheduler changes;
# commit the result and mention the cause in the commit message (see
# EXPERIMENTS.md).
bench-baseline:
	$(PYTHON) -m repro bench --quick --jobs 2 --no-cache
	cp benchmarks/output/BENCH_pipeline.json benchmarks/baseline/BENCH_pipeline.json
	@echo "baseline refreshed; review 'git diff benchmarks/baseline' before committing"

# The original pytest-based benchmark suite (paper-shape assertions).
bench-tests:
	$(PYTHON) -m pytest benchmarks -q

# The perf CI lane: pinned-seed hot-path microbenchmarks (MRT probing,
# distance tables, one B&B search, register allocation, the pipelined
# memory simulation) diffed against the committed
# benchmarks/baseline/BENCH_micro.json, judged by the `micro` row of
# repro.obs.trend.TOLERANCES.  Refresh
# the baseline after intentional perf changes with
# `python benchmarks/test_micro_hotpaths.py --update-baseline`.
bench-micro:
	$(PYTHON) -m pytest benchmarks/test_micro_hotpaths.py -q

# Search-effort tracing smoke: three Livermore loops through every
# registered pipeliner with the repro.obs recorder on, solved live (traced
# cells bypass the cache), into their own output directory; bench --trace
# prints the effort table and fails unless the JSONL spools and the merged
# Chrome trace parse and nest correctly and some cell was traced.
trace-smoke:
	$(PYTHON) -m repro bench livermore --quick --trace --limit 3 \
		--output-dir benchmarks/output/trace-smoke

# II-gap attribution over the full Livermore corpus: which constraint
# (recurrence, resource, register pressure, search budget or exhaustion)
# binds each loop's achieved II, per scheduler, as each grid cell recorded
# it.  The Livermore grid runs first (all cache hits after `make grid`).
explain:
	$(PYTHON) -m repro bench livermore --quick --jobs 2
	$(PYTHON) -m repro explain livermore

# CI's attribution smoke: every cell of `make grid`'s BENCH_sweep_all.json,
# all corpora × all four schedulers; fails when a cell crashed, when no
# cell was explained or when a binding falls outside
# repro.obs.explain.BINDING_CLASSES.
explain-smoke: grid
	$(PYTHON) -m repro explain all --json benchmarks/output/explain.json
	$(PYTHON) -c "import json, sys; \
		from repro.obs.explain import BINDING_CLASSES; \
		cells = json.load(open('benchmarks/output/explain.json')); \
		bad = ['%s x %s: %s' % (c['loop'], c['scheduler'], c.get('binding', 'error')) \
		       for c in cells if c.get('binding') not in BINDING_CLASSES]; \
		print('explain cells=%d outside BINDING_CLASSES=%d' % (len(cells), len(bad)), *bad); \
		sys.exit(1 if bad or not cells else 0)"

# The experiment runner's --strict path outside pytest: Figure 2 with every
# cell run under the exec oracle (independent verification of schedule,
# allocation and listing, plus the functional simulation); exits 1 naming
# each cell the verdict's per-cell layers find wrong.
strict-smoke:
	$(PYTHON) -m repro fig2 --strict

# Certified II lower bounds over every corpus: derive the refined bounds,
# validate every shipped certificate with the independent checker, and
# cross-check each grid cell's achieved II and recorded bound against them
# (exits non-zero on a checker failure, a bound contradiction, a cell
# whose recorded bound differs or a violation of the grid's verdict).
# Reads `make grid`'s BENCH_sweep_all.json.
analyze: grid
	$(PYTHON) -m repro analyze all --check

# The CI regression gate: attributed diff of the latest bench output
# against the committed baseline; exits non-zero on quality regressions
# (timings are judged by repro.obs.trend.TOLERANCES and only warn here).
diff-strict:
	$(PYTHON) -m repro diff benchmarks/baseline benchmarks/output --strict

# The full dashboard: figure tables, per-loop II explanations, bench diff.
report:
	$(PYTHON) -m repro report --check

# CI's dashboard smoke: the bench json's cells as the explanation panel, no
# experiment tables, validated HTML.
report-smoke:
	$(PYTHON) -m repro report --experiments none --output benchmarks/output/report.html --check

# Statistical trend verdicts over the run-history store: every metric
# series of the last 20 stored runs classified as stable / noisy / drift
# / step_change, changepoints attributed to commit ranges (series with
# fewer runs are judged by repro.obs.trend.TOLERANCES).  Warn-only here
# (history depth varies between checkouts); `repro diff --trend` is the
# gate that escalates a fresh step_change to a regression.
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

# The backend-portfolio smoke lane: the quick grid's portfolio cells
# alone (cross-check on, so every II probe is answered by every backend),
# which bench fails on any violation of the seven-layer verdict, the
# agreement layer among them (a sat and an unsat at one II, or a sat
# without a witness); then a non-empty probe trail, and the whole quick
# grid gated against the committed baseline.  Two workers, as in CI's
# strict gate: the quick preset's wall budget decides whether
# rb_reg_farm x portfolio falls back, and four workers on two cores can
# spend it.
portfolio-smoke:
	$(PYTHON) -m repro bench --quick --jobs 2 --schedulers portfolio
	$(PYTHON) -c "import json, sys; \
		probes = json.load(open('benchmarks/output/BENCH_pipeline_portfolio.json'))['totals'].get('probes', 0); \
		print(f'portfolio probes={probes}'); \
		sys.exit(0 if probes else 1)"
	$(PYTHON) -m repro bench --quick --jobs 2
	$(PYTHON) -m repro diff benchmarks/baseline benchmarks/output --strict

# The scheduling daemon on the default TCP port (ctrl-C drains gracefully).
serve:
	$(PYTHON) -m repro serve --port 7996 --jobs 4

# The serving smoke lane: boot an in-process daemon, replay the quick
# grid + committed fuzz corpus through the NDJSON wire protocol (a warm
# phase that solves every distinct cell, then a cache-served replay at
# concurrency 16), require a clean pass — zero protocol errors, no
# violation in BENCH_service.json's verdict — plus answers bit-identical to the direct
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

# Everything CI runs, in CI's order: the grid once, then its views.
ci: lint test grid verify-corpus analyze bench-quick cache-smoke trace-smoke explain-smoke \
	report-smoke strict-smoke diff-strict portfolio-smoke bench-micro bench-tests fuzz-smoke \
	serve-smoke trend e2e-smoke
