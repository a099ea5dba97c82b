# Developer entry points.  Everything assumes the in-tree layout
# (PYTHONPATH=src); `make lint` is the same gate CI's static-analysis
# job runs, minus --require-all so missing optional tools skip locally.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-strict bench bench-smoke bench-full

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.devtools.check

lint-strict:
	$(PYTHON) -m repro.devtools.check --require-all

bench:
	$(PYTHON) -m pytest -q benchmarks/bench_perf_unifier.py

# The exact sequence CI's bench-smoke job runs: snapshot the committed
# trajectory as the regression baseline, re-measure (the bench suites
# rewrite BENCH_merge.json in place), then gate the fresh numbers
# against the snapshot.  Keeping local and CI invocations identical
# means a perf number reported from either is produced the same way.
bench-smoke:
	cp BENCH_merge.json BENCH_baseline.json
	$(PYTHON) -m pytest -q benchmarks/bench_perf_unifier.py
	$(PYTHON) -m pytest -q benchmarks/bench_scenarios.py
	$(PYTHON) benchmarks/check_regression.py \
		--baseline BENCH_baseline.json --current BENCH_merge.json

# The full-scale lane CI's full-scale-bench job runs: full-scale
# scenario families plus the 512/1024/1536-radio campus sweep.
# Expensive — the 12-building campus alone simulates for a few
# minutes — so it is not part of bench-smoke.
bench-full:
	cp BENCH_merge.json BENCH_baseline.json
	$(PYTHON) -m pytest -q benchmarks/bench_perf_unifier.py --scale full
	$(PYTHON) -m pytest -q benchmarks/bench_scenarios.py --scale full
	$(PYTHON) benchmarks/check_regression.py \
		--baseline BENCH_baseline.json --current BENCH_merge.json
