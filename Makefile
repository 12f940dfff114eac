# Developer entry points. `make check` is the local tier-1 gate: build,
# vet, the repo's own static analyzers (cmd/parlint), full tests, a
# race-detector pass, the vmpi ownership checker build (-tags vmpidebug,
# over every package that calls vmpi), and ten seconds of differential
# fuzzing per target (fuzz-smoke).

GO ?= go

.PHONY: all build test race fuzz-smoke bench vet lint debugtest golden golden-update golden-par fig10 golden-bigp golden-bigp-w4 golden-bigp-update golden-resize golden-resize-update golden-mem golden-mem-update check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector needs real goroutine interleaving; force a few Ps even
# on single-core hosts. The long drift simulations in paperbench skip
# themselves under the race detector (see race_on_test.go).
race:
	GOMAXPROCS=4 $(GO) test -race ./...

# Differential fuzz smoke: ten seconds of every package:Target in
# FUZZ_TARGETS, each an optimised structure against its kept reference, bit
# for bit — the dense FMM operator tables against the map-based bodies, the
# FFT panel passes against per-call Transform on gathered columns, the
# open-addressed vmpi mailbox against a map of FIFOs, the redist planner
# (both backends, the lost vote, budgets) against a sequential scatter, the
# obs running aggregates against a scan of the kept event list, the rank
# executor (slot hand-off, stray wakes, Admit, budgets) against a sequential
# FIFO model and its deadlock verdict, the rendezvous collectives (clocks,
# counters, results, events) against their message-level bodies, and the
# replayed merge-exchange and rotational sorts (the same, plus items)
# against the message-level ones. This is the
# one list of fuzz targets: a new target joins it here and nowhere else. The
# committed seed corpora (internal/*/testdata/fuzz) already run in every go
# test.
FUZZ_TARGETS := internal/fmm:FuzzOperatorsMatchReference internal/fft:FuzzPanelMatchesPerCall \
	internal/vmpi:FuzzMailboxMatchesReference internal/redist:FuzzPlanMatchesOracle \
	internal/obs:FuzzAggregatesMatchLog internal/rankexec:FuzzExecutorMatchesModel \
	internal/vmpi:FuzzCollectivesMatchMessageLevel internal/psort:FuzzSortMergeMatchesMessageLevel

fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		( set -x; $(GO) test ./$${t%%:*} -run '^$$' -fuzz $${t##*:} -fuzztime 10s ); \
	done

# The repo's one host-performance instrument: wall clock, live heap and
# per-layer meters for the workloads BENCHMARK.json declares (see
# bench/README.md). Figure 10's per-rank-count host row is BenchmarkFig10
# in internal/paperbench.
bench:
	$(GO) run ./bench

# Figure 10 extends the strategy comparison to the paper's machine sizes
# (64 ... 16384 ranks) on the event-driven rank executor; the full sweep
# takes a few minutes, dominated by the 16384-rank merge-sort cells.
fig10:
	$(GO) run ./cmd/paperbench -fig 10

vet:
	$(GO) vet ./...

# Repo-specific analyzers (see DESIGN.md, "Enforced invariants"): buffer ownership
# (ownedbuf), hot-path determinism (determinism), SPMD collective
# symmetry (collsym), and hot-kernel allocations (hotalloc).
lint:
	$(GO) run ./cmd/parlint ./...

# The runtime ownership checker (use-after-transfer, double release, writes
# to shared Allreduce/Allgather results) compiled into the tests of vmpi and
# of every package that calls it. paperbench stays out: it adds some 50 s.
DEBUG_PKGS := vmpi psort redist fft pnfft fmm coupling elastic shortrange core mdsim

debugtest:
	$(GO) test -tags vmpidebug $(addprefix ./internal/,$(DEBUG_PKGS))

# Golden gates. Each gate reruns one canonical paperbench invocation (see
# EXPERIMENTS.md) and byte-diffs its stdout against a checked-in baseline
# under testdata/golden/; any divergence — a changed virtual time anywhere —
# fails. The bigp, resize and mem baselines are also diffed in-process by
# go test (TestGoldens in internal/paperbench). To accept an
# intentional change: make <gate>-update, then review the diff. One recipe
# serves every gate, parametrised per target by ARGS (the invocation), BASE
# (the baseline file) and EXTRA (flags of the gate run only: observability
# exports, whose notices go to stderr so stdout stays byte-stable, or a
# pinned worker count):
#
#   golden         Figures 6-9; exports the canonical observability run
#                  (the Fig. 9 torus steady state) as Chrome trace + metrics.
#   golden-bigp    The 1024-rank Figure 10 point: the cheap stand-in for the
#                  full 64...16384 sweep, three orders of magnitude above
#                  the Figure 6-9 rank counts. Its -w4 leg pins the executor
#                  to 4 run slots: figure bytes must not depend on the
#                  worker count.
#   golden-resize  The elastic-worlds cost figure (live vmpi.Resize with
#                  particle remapping vs static peak over-provisioning);
#                  exports the grow leg's timeline with the resize epochs.
#   golden-mem     Figure M (the unbounded exchange exhausting the staging
#                  budget vs the planner's bounded rounds, plus the three
#                  sorts under the same budget); exports the planned
#                  exchange's timeline with the redist/peak_bytes meter.
#
# JOBS is the experiment scheduler's worker count (paperbench -j). The
# figure bytes are identical at any value — golden-par proves it by
# diffing a -j 1 run against a -j 8 run — so the gates run parallel by
# default and only wall-clock time depends on the host.
JOBS ?= 8

GOLDEN_ARGS := -fig all -particles 6000 -ranks 8 -ranks-list 2,4,8,16

golden golden-update:                          ARGS  := $(GOLDEN_ARGS)
golden golden-update:                          BASE  := testdata/golden/paperbench_output.txt
golden:                                        EXTRA := -trace-out obs_trace.json -metrics-out obs_metrics.txt
golden-bigp golden-bigp-w4 golden-bigp-update: ARGS  := -fig 10 -ranks-list 1024
golden-bigp golden-bigp-w4 golden-bigp-update: BASE  := testdata/golden/paperbench_fig10_1024.txt
golden-bigp-w4:                                EXTRA := -workers 4
golden-resize golden-resize-update:            ARGS  := -fig resize
golden-resize golden-resize-update:            BASE  := testdata/golden/paperbench_resize.txt
golden-resize:                                 EXTRA := -trace-out obs_resize_trace.json -metrics-out obs_resize_metrics.txt
golden-mem golden-mem-update:                  ARGS  := -fig mem
golden-mem golden-mem-update:                  BASE  := testdata/golden/paperbench_mem.txt
golden-mem:                                    EXTRA := -trace-out obs_mem_trace.json -metrics-out obs_mem_metrics.txt

golden-bigp: golden-bigp-w4

golden golden-bigp golden-bigp-w4 golden-resize golden-mem:
	$(GO) run ./cmd/paperbench $(ARGS) -j $(JOBS) $(EXTRA) > $@.got.txt
	diff -u $(BASE) $@.got.txt
	rm -f $@.got.txt

golden-update golden-bigp-update golden-resize-update golden-mem-update:
	$(GO) run ./cmd/paperbench $(ARGS) -j $(JOBS) > $(BASE)

# Serial-vs-parallel byte identity: the canonical invocation at -j 1 and
# -j 8 must produce identical stdout, trace, and metrics bytes (and match
# the checked-in baseline).
golden-par:
	$(GO) run ./cmd/paperbench $(GOLDEN_ARGS) -j 1 \
		-trace-out obs_trace.j1.json -metrics-out obs_metrics.j1.txt > paperbench_output.j1.txt
	$(GO) run ./cmd/paperbench $(GOLDEN_ARGS) -j 8 \
		-trace-out obs_trace.j8.json -metrics-out obs_metrics.j8.txt > paperbench_output.j8.txt
	diff -u paperbench_output.j1.txt paperbench_output.j8.txt
	diff -u obs_trace.j1.json obs_trace.j8.json
	diff -u obs_metrics.j1.txt obs_metrics.j8.txt
	diff -u testdata/golden/paperbench_output.txt paperbench_output.j1.txt
	rm -f paperbench_output.j1.txt paperbench_output.j8.txt \
		obs_trace.j1.json obs_trace.j8.json obs_metrics.j1.txt obs_metrics.j8.txt

check: build vet lint test debugtest race fuzz-smoke golden golden-bigp golden-resize golden-mem
