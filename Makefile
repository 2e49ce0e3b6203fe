# Developer entry points.  `make check` is the gate CI runs: formatting,
# full build, full test suite, odoc build, and the BENCH_stats.json schema
# check against docs/METRICS.md.

.PHONY: all build test fmt fmt-fix doc stats-check docs-check chaos-check perf-check store-check torture-check check bench twins clean

all: build

build:
	dune build

test:
	dune runtest

# Validates formatting (dune files; see the note in dune-project).
fmt:
	dune build @fmt

fmt-fix:
	dune fmt

# API docs from the odoc comments (lib/core cites the paper's listings).
# When the switch has no odoc installed, dune's @doc alias is an empty
# no-op, so this stays green everywhere; with odoc present it renders to
# _build/default/_doc/_html.
doc:
	dune build @doc

# Regenerate BENCH_stats.json (internal counters of every registry queue,
# lib/obs, on the simulator) and validate its schema + METRICS.md coverage.
stats-check:
	dune exec bin/statscheck.exe -- BENCH_stats.json docs/METRICS.md

# Documentation-drift gate (bin/docscheck.ml): every Registry spec form
# must appear (backticked) in README.md's queue-spec table with a parsing
# example; the Obs.counter/Obs.span names declared under lib/ and the
# counter/span rows of docs/METRICS.md must match both ways — stricter
# than stats-check, which only sees names the stats benchmark happens to
# emit; Chaos.sites, the fault_point literals under lib/ and the site
# catalogue of docs/CHAOS.md must be one set; and every counter name
# docs/TUNING.md cites must be declared.
docs-check:
	dune exec bin/docscheck.exe -- README.md docs/METRICS.md lib docs/CHAOS.md docs/TUNING.md

# Fault-injection gate (lib/chaos; docs/CHAOS.md): a 32-seed sweep of
# deterministic fault plans over queue conservation and hardened-scheduler
# cases, plus the planted-bug teeth check.  Writes BENCH_chaos.json and
# fails on any violation.
chaos-check:
	dune exec bin/chaos.exe -- --seeds 32

# Hot-path performance gate (bin/perfcheck.ml): one table of rows over
# the uniform insert/delete-min mix and the fiber closed loop.  Every Real
# row is sampled 5 times in interleaved rounds and decided on its median;
# every Sim row runs once per seed 1-40 (the simulator is deterministic,
# but one seed is one schedule) and is decided on its median.  Writes
# BENCH_throughput.json and fails if any gate does:
#   - Real klsm:256 at T = 8: the block pool hits;
#   - Real striping: klsm-sharded:256:4 >= 0.95 x klsm:256 at T = 8;
#   - Real floors per thread: klsm-sharded:1024:4 at T = 8 and the fiber
#     runtime on 8 domains;
#   - Sim tick budgets for the fixed merge/pivot workload on klsm:256 and
#     klsm-sharded:256:4 (median over the seeds: more ticks = more
#     hot-path work);
#   - Sim flatness: klsm-sharded:1024:4 per-thread T = 16 / T = 8 >= 0.85.
perf-check:
	dune exec bin/perfcheck.exe

# Spill-tier gate (bin/storecheck.ml; docs/STORAGE.md): with block
# spillage enabled the descending-key workload must hold >= 90% of in-RAM
# throughput (and must actually spill — a vacuous pass fails), and a
# planted mid-spill-kill store must recover byte-identically with an
# idempotent second pass.  Then, report only, the spill-threshold sweep
# and recovery scaling tables.  Writes BENCH_storecheck.json.
store-check:
	dune exec bin/storecheck.exe

# Crash-point torture gate (bin/torture.ml; docs/CHAOS.md): a seeded grid
# of (fault site x hit index x fault kind) adversarial-I/O plans over the
# in-memory Faulty vfs — short/torn writes, transient and sticky
# EIO/ENOSPC, bit rot, lying fsyncs, dropped renames, process kills and
# power losses — each run to a recovery steady state with conservation,
# no-resurrection and loss-accounting oracles, plus a planted bit-rot
# teeth case that must be quarantined.  Writes BENCH_torture.json and
# fails on any violation.
torture-check:
	dune exec bin/torture.exe

check: fmt build test doc stats-check docs-check chaos-check perf-check store-check torture-check

# The experiment index (DESIGN.md §2, bench/experiments.sh): one bin/ CLI
# line per figure or table at the scaled defaults.  `dune runtest` runs
# the same lines at tiny scale (the smoke rule in bin/dune).
bench:
	dune build bin && sh bench/experiments.sh _build/default/bin

# The benchmark's simulator twins alone (bin/twins.ml): the six twin
# metrics of every workload per seed, with medians and quartiles.  About
# 15 s per seed; `make twins SEEDS=11 WORKLOAD="--workload sssp-grid"`.
SEEDS ?= 1-10
WORKLOAD ?=
twins:
	dune exec bin/twins.exe -- --seeds $(SEEDS) $(WORKLOAD)

clean:
	dune clean
	rm -rf _store
