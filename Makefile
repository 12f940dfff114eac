# Developer entry points. `make check` is the local tier-1 gate: gofmt
# (fmt, CI's first step), build, vet, the repo's own static analyzers
# (cmd/parlint), full tests, a race-detector pass, the vmpi ownership
# checker build (-tags vmpidebug, over every package that calls vmpi), ten
# seconds of differential fuzzing per target (fuzz-smoke), and the golden
# figure gates.

GO ?= go

.PHONY: all fmt build test race fuzz-smoke bench vet lint debugtest golden golden-par fig10 golden-bigp golden-bigp-w4 golden-resize golden-mem check

all: build

# Fails when any Go file is not gofmt-formatted, and lists those files.
fmt:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

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
# for bit — the dense FMM operator tables and the batched four-target M2L
# (m2l4, its weight-1 rows included) against the map-based bodies, on
# random operands and on NaN payloads, infinities, signed zeros and
# subnormals, the FFT line and panel kernels (two stages per pass, the
# inverse's 1/n folded in) against the one-stage-per-pass reference kernels
# (a NaN matching any NaN where one is planted), the vmpi mailbox's arrival
# list against a map of per-key FIFOs, the redist planner
# (both backends, the lost vote, budgets) against a sequential scatter and
# its replayed exchanges against the message-level ones — per-destination
# blocks through the collectives (refExecuteDense) and the neighbourhood's
# Send/Recv loops (refExecuteNeighborhood): results, clocks, counters,
# events —, the obs
# running aggregates against a scan of the kept event list, the rank
# executor (slot hand-off, stray wakes, Admit, budgets) against a sequential
# FIFO model and its deadlock verdict, the rendezvous collectives (clocks,
# counters, results, events) against their message-level bodies, and the
# replayed merge-exchange and rotational sorts (the same, plus items)
# against the message-level ones, psort's adaptive local sort (items with
# their original order, clock bits) against the keyed sort.Stable it
# replaced, the torus network cost (per-hop
# tables, hops by mask and shift) against the division-based body on random
# tori of up to 65 536 ranks, and hostpar.For (tiles covered once, per-tile
# partials in tile order bit for bit, the re-raised panic of planted tiles)
# against the plain tile loop. This is the
# one list of fuzz targets: a new target joins it here and nowhere else. The
# committed seed corpora (internal/*/testdata/fuzz) already run in every go
# test.
FUZZ_TARGETS := internal/fmm:FuzzOperatorsMatchReference internal/fft:FuzzPanelMatchesPerCall \
	internal/fft:FuzzTransformMatchesReference \
	internal/vmpi:FuzzMailboxMatchesReference internal/redist:FuzzPlanMatchesOracle \
	internal/obs:FuzzAggregatesMatchLog internal/rankexec:FuzzExecutorMatchesModel \
	internal/vmpi:FuzzCollectivesMatchMessageLevel internal/psort:FuzzSortMergeMatchesMessageLevel \
	internal/psort:FuzzLocalSortMatchesReference internal/netmodel:FuzzTorusCostMatchesReference \
	internal/hostpar:FuzzForMatchesSerial

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

# Repo-specific analyzers (see DESIGN.md, "Enforced invariants"): hot-path
# determinism (determinism), SPMD collective symmetry (collsym), and
# hot-kernel allocations (hotalloc). Buffer ownership is checked at run
# time (debugtest).
lint:
	$(GO) run ./cmd/parlint ./...

# The runtime ownership checker (use-after-transfer, double release, writes
# to transferred buffers and to shared Allreduce/Allgather results; the one
# enforcer of the ownership protocol) compiled into the tests of vmpi and
# of every package that calls it. paperbench stays out: it adds some 50 s.
DEBUG_PKGS := vmpi psort redist fft pnfft fmm coupling elastic shortrange core mdsim

debugtest:
	$(GO) test -tags vmpidebug $(addprefix ./internal/,$(DEBUG_PKGS))

# Golden gates. Each gate reruns one canonical paperbench invocation (see
# EXPERIMENTS.md) and byte-diffs its stdout against the checked-in
# baselines under testdata/golden/, one file per figure; any divergence — a
# changed virtual time anywhere — fails. go test diffs the same baselines
# in-process (TestGoldens in internal/paperbench), all but Figures 9l and
# 9r, together with the six obs_* exports. To accept an intentional change:
# go test ./internal/paperbench -update, then review the
# diff. One recipe serves every gate, parametrised per target by ARGS (the
# invocation), BASE (the baselines, concatenated in order) and EXTRA (flags
# of the gate run only: observability exports, whose notices go to stderr
# so stdout stays byte-stable, or a pinned worker count):
#
#   golden         Figures 6-9 (-fig all); exports the canonical
#                  observability run (the Fig. 9 torus steady state) as
#                  Chrome trace + metrics.
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

GOLDEN_BASE := $(foreach f,6 7 8 9l 9r,testdata/golden/fig$(f).txt)

golden:                       ARGS  := -fig all
golden:                       BASE  := $(GOLDEN_BASE)
golden:                       EXTRA := -trace-out obs_trace.json -metrics-out obs_metrics.txt
golden-bigp golden-bigp-w4:   ARGS  := -fig 10 -ranks-list 1024
golden-bigp golden-bigp-w4:   BASE  := testdata/golden/paperbench_fig10_1024.txt
golden-bigp-w4:               EXTRA := -workers 4
golden-resize:                ARGS  := -fig resize
golden-resize:                BASE  := testdata/golden/paperbench_resize.txt
golden-resize:                EXTRA := -trace-out obs_resize_trace.json -metrics-out obs_resize_metrics.txt
golden-mem:                   ARGS  := -fig mem
golden-mem:                   BASE  := testdata/golden/paperbench_mem.txt
golden-mem:                   EXTRA := -trace-out obs_mem_trace.json -metrics-out obs_mem_metrics.txt

golden-bigp: golden-bigp-w4

golden golden-bigp golden-bigp-w4 golden-resize golden-mem:
	$(GO) run ./cmd/paperbench $(ARGS) -j $(JOBS) $(EXTRA) > $@.got.txt
	cat $(BASE) | diff -u - $@.got.txt
	rm -f $@.got.txt

# Serial-vs-parallel byte identity: the canonical invocation at -j 1 and
# -j 8 must produce identical stdout, trace, and metrics bytes (and match
# the checked-in baselines).
golden-par:
	$(GO) run ./cmd/paperbench -fig all -j 1 \
		-trace-out obs_trace.j1.json -metrics-out obs_metrics.j1.txt > paperbench_output.j1.txt
	$(GO) run ./cmd/paperbench -fig all -j 8 \
		-trace-out obs_trace.j8.json -metrics-out obs_metrics.j8.txt > paperbench_output.j8.txt
	diff -u paperbench_output.j1.txt paperbench_output.j8.txt
	diff -u obs_trace.j1.json obs_trace.j8.json
	diff -u obs_metrics.j1.txt obs_metrics.j8.txt
	cat $(GOLDEN_BASE) | diff -u - paperbench_output.j1.txt
	rm -f paperbench_output.j1.txt paperbench_output.j8.txt \
		obs_trace.j1.json obs_trace.j8.json obs_metrics.j1.txt obs_metrics.j8.txt

check: fmt build vet lint test debugtest race fuzz-smoke golden golden-bigp golden-resize golden-mem
