# Developer entry points.  Everything runs from the repo root with the
# in-tree sources on PYTHONPATH — no install step required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint verify test bench bench-e2e-smoke bench-e2e-compare chaos all

all: lint test

# Architecture gate, the families `--list-rules` prints: determinism,
# exception hygiene, layering (Fig. 2-1), perf, protocol type-id
# reservations (Sec. 5.2), sole sites and the protocol model, over the
# whole tree (fixture trees excluded — they violate on purpose).  Waivers are ratcheted against the committed baseline, and
# results are cached on file content hashes so an unchanged tree
# re-lints in well under a second.  See ANALYSIS.md for the catalogue.
lint:
	$(PYTHON) -m repro.analysis src/repro tests benchmarks \
	    --exclude tests/fixtures \
	    --cache .ntcslint-cache.json \
	    --max-waivers $$(cat .ntcslint-baseline)

# Model stage alone: extract the protocol state machines and wire
# handshake, run the MDL deadlock/livelock checks.  Add
# `--trace FILE.jsonl` to replay recorded netsim wire traces.
verify:
	$(PYTHON) -m repro.analysis verify src/repro

# Tier-1 suite (includes tests/test_static_analysis.py, which re-runs
# the lint gate and the seeded-violation fixtures).
test:
	$(PYTHON) -m pytest -x -q

# Chaos suite (PROTOCOL.md §10): deterministic fault schedules,
# gateway/Name-Server crash recovery, FaultPlan edge cases, and
# property-based random schedules.  NTCS_CHAOS_SEED offsets the
# scripted scenarios' chaos seeds so CI sweeps several seeds; a failing
# random schedule writes its replay JSON into chaos-failures/.
chaos:
	$(PYTHON) -m pytest tests/test_chaos.py tests/test_property_chaos.py \
	    tests/test_faults_unit.py -q

# Experiments E1-E13 (EXPERIMENTS.md): claim-by-claim tables land in
# benchmarks/results/ and are collected into EXPERIMENTS-RESULTS.md.
# Exit status is the experiments' own assertions; the timings
# pytest-benchmark prints are not a performance gate — the repo
# benchmark below is.  CI runs this as the experiments job.
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q
	$(PYTHON) -m repro.tools.report

# The repo benchmark (BENCHMARK.json, bench_e2e/README.md) at 1/40 of
# the work: all four workloads through the whole stack with the per-op
# oracles on, every catalogue metric printed, the result set written to
# BENCH_e2e_smoke.json — then the harness's own self-check.  Exit status
# is correctness only; the numbers of a smoke run are not comparable.
# CI runs this as the bench-e2e-smoke job.
bench-e2e-smoke:
	python3 -m bench_e2e --smoke --out BENCH_e2e_smoke.json
	$(PYTHON) -m pytest bench_e2e -q

# Judge a change the way the pipeline does: the repo benchmark on the
# committed files of BASE (extracted into a scratch tree) and on this
# tree, three rounds of one untraced + one traced run per workload,
# alternating which side runs first, then `--compare` on the merged
# result sets.  Fails when an end-to-end metric is worse than BASE by
# more than its BENCHMARK.json bound (a "worse" verdict).  Per-layer
# counts that differ are printed but do not fail: a change to the code
# is expected to move them.  ~10 minutes.
# CI runs this as the bench-e2e-compare job on pull requests.
COMPARE_DIR := .bench-e2e-compare
MERGE_RESULTS := import json, sys; \
    sets = [json.load(open(path)) for path in sys.argv[2:]]; \
    sets[0]["runs"] = [run for s in sets for run in s["runs"]]; \
    json.dump(sets[0], open(sys.argv[1], "w"), indent=1)

bench-e2e-compare:
	@test -n "$(BASE)" || \
	    { echo "usage: make bench-e2e-compare BASE=<git ref>" >&2; exit 2; }
	rm -rf $(COMPARE_DIR) && mkdir -p $(COMPARE_DIR)/base
	git archive $(BASE) | tar -x -C $(COMPARE_DIR)/base
	set -e; out=$$PWD/$(COMPARE_DIR); \
	for round in 1 2 3; do \
	    sides="base head"; \
	    if [ $$round = 2 ]; then sides="head base"; fi; \
	    for side in $$sides; do \
	        tree=.; \
	        if [ $$side = base ]; then tree=$(COMPARE_DIR)/base; fi; \
	        (cd $$tree && python3 -m bench_e2e --runs 1 \
	            --out $$out/$$side.$$round.json); \
	    done; \
	done
	for side in base head; do \
	    python3 -c '$(MERGE_RESULTS)' $(COMPARE_DIR)/$$side.json \
	        $(COMPARE_DIR)/$$side.[123].json || exit 1; \
	done
	python3 -m bench_e2e --compare $(COMPARE_DIR)/base.json \
	    $(COMPARE_DIR)/head.json > $(COMPARE_DIR)/compare.txt; \
	    cat $(COMPARE_DIR)/compare.txt
	grep -q '^verdict:' $(COMPARE_DIR)/compare.txt
	! grep -q ' worse$$' $(COMPARE_DIR)/compare.txt
