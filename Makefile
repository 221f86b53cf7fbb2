# Convenience targets for the SWS reproduction.

PYTHON ?= python

.PHONY: install test loc chaos schedules mp conformance serving explore perf-ab perf-pairs experiments experiments-full experiments-check examples clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

# Line-budget ratchet: src/**/*.py may not grow past the committed
# number in tools/loc_budget.py (ROADMAP item 3).
loc:
	$(PYTHON) tools/loc_budget.py

chaos:
	$(PYTHON) -m pytest -m chaos tests/chaos/

schedules:
	$(PYTHON) -m pytest -m schedules tests/schedules/

# Real-time substrate tests: real OS processes over shared memory, and
# the threads backend, which runs only mp/queue.py's classes (see
# docs/backends.md).  The one list of real-time suites: CI's mp job runs
# this target.
mp:
	$(PYTHON) -m pytest tests/test_mp_atomics.py tests/test_mp_queue.py \
	    tests/test_mp_driver.py tests/test_mp_fleet.py \
	    tests/test_mp_owner_path.py tests/test_mp_bulkcopy.py \
	    tests/test_threads.py tests/test_threads_sdc.py \
	    tests/test_race_harness.py \
	    tests/test_ffmult_properties.py tests/test_model_based_ffmult.py

# Cross-backend agreement: fabric ≡ threads ≡ mp on the golden schedule,
# task conservation and completion accounting; and every protocol ×
# backend × feature cell of the capability table, run or refused.
conformance:
	$(PYTHON) -m pytest -m conformance tests/conformance/ \
	    tests/test_capabilities.py

# Open-system serving mode: arrival-process properties, quantile-sketch
# bounds, SLO/shedding runs, and the cross-backend serving
# checksums (docs/serving.md).
serving:
	$(PYTHON) -m pytest -m serving tests/

# Deeper interleaving sweep than the pytest suite (see docs/testing.md);
# failing schedules land in results/schedules/ as replayable traces.
explore:
	$(PYTHON) -m repro explore --seeds 50 --shrink --out results/schedules
	$(PYTHON) -m repro explore --policy dfs --dfs-depth 5 --shrink \
	    --out results/schedules

# The one way to make a host-time claim (docs/performance.md), as one
# command: CI's `bench` job against BASE — perfbench in a worktree of
# BASE and here, the --compare table, then the exact-statistics check.
# `make perf-ab SEED=7 ALLOW="--allow virt_runtime_ms"`; ~12 min.
BASE ?= HEAD^
SEED ?= 0
perf-ab:
	@set -e; out=.perf-ab; rm -rf $$out; mkdir $$out; git worktree prune; \
	git worktree add --detach $$out/base $(BASE); \
	trap 'git worktree remove --force $$out/base' EXIT; \
	(cd $$out/base && python3 -m perfbench --seed $(SEED)); \
	cp $$out/base/perfbench/out/result.json $$out/parent.json; \
	python3 -m perfbench --seed $(SEED); \
	cp perfbench/out/result.json $$out/change.json; \
	rc=0; python3 -m perfbench --compare $$out/parent.json $$out/change.json \
	    > $$out/compare.txt || rc=$$?; \
	cat $$out/compare.txt; \
	python3 tools/check_exact.py $$out/compare.txt $(ALLOW); \
	exit $$rc

# One end-to-end claim, as alternating pairs: perfbench's WORKLOAD in a
# worktree of BASE and here, ten times; prints medians, B/A per pair,
# the change's wins and the base's IQR; fails on any failed operation.
# `make perf-pairs BASE=HEAD^ WORKLOAD=mp_uts SEED=7`; ten pairs.
WORKLOAD ?= mp_uts
perf-pairs:
	python3 tools/perf_pairs.py --base $(BASE) --workload $(WORKLOAD) \
	    --seed $(SEED)

# One runner (docs/reproducing.md): rows land in results/experiments.db,
# everything printed or written is a view of them.
experiments:
	$(PYTHON) -m repro sweep --scenarios all --tables

experiments-full:
	$(PYTHON) -m repro sweep --scenarios all --scale full \
	    --markdown EXPERIMENTS.md

# The deliverable, pinned: regenerate the quick-scale document from
# scratch and diff it against the committed one.  Fails on any byte that
# moved (a simulated number changed: commit the new file, and the diff is
# the review) and on any row that is not PASS (the sweep's own exit code).
experiments-check:
	@set -e; tmp=$$(mktemp); trap 'rm -f $$tmp' EXIT; \
	$(PYTHON) -m repro sweep --scenarios all --no-cache --jobs 2 --quiet \
	    --markdown $$tmp; \
	diff -u tests/data/EXPERIMENTS.quick.md $$tmp

examples:
	@for e in quickstart steal_latency damping_demo lifeline_demo; do \
	    echo "== examples/$$e.py =="; \
	    $(PYTHON) examples/$$e.py || exit 1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis results .perf-ab .perf-pairs
	find . -name __pycache__ -type d -exec rm -rf {} +
