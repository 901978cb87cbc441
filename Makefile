GO ?= go

.PHONY: build test test-purego test-v3 cross-build perf-test examples fuzz-smoke kernel-bench-smoke test-race test-stress bench ci verify e2e

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The kernels come in three tiers: on amd64 the matmul tile has an
# 8-row AVX-512 form and a 4-row AVX2 form, the exp-based kernels
# (GELU, SiLU, softmax) a 16-lane AVX-512 and an 8-lane AVX2 form, and
# Adam's update (internal/tensor, called by internal/nn) an AVX2 form,
# the best the CPU runs picked at start-up; everything else runs the
# portable Go twins. The purego tag
# forces the twins, so an amd64 machine tests the code every other
# GOARCH runs (the tier-parity tests compare all three in one amd64
# process); cross-build keeps the non-amd64 build from rotting.
test-purego:
	$(GO) test -tags purego ./internal/tensor ./internal/nn ./internal/model ./internal/adapter

# At GOAMD64=v3 the compiler may assume FMA hardware, and the language
# lets it fuse x*y + z wherever the product is not explicitly rounded.
# The twins round every such product with float32(x*y); one that does
# not would, once fused, stop matching the assembly tiers, and the
# tier-parity tests in these packages fail here rather than
# on someone's arm64 machine. A forward guard: the Go 1.24 amd64 back
# end still emits MULSS+ADDSS at v3, so today only arm64 fuses, and the
# cross-build below compiles that target without running it.
test-v3:
	GOAMD64=v3 $(GO) test ./internal/tensor ./internal/nn ./internal/model

# The arm64 back end does fuse: cross-build fails if its assembly of
# the compute-plane packages holds a single fused multiply-add
# (FMADD/FMSUB/FNMADD/FNMSUB), i.e. a product feeding an add that no
# float32(…)/float64(…) conversion rounds (docs/NUMERICS.md rule 3).
FUSED_PKGS = ./internal/tensor ./internal/nn ./internal/model ./internal/adapter

cross-build:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S $(FUSED_PKGS) 2>&1) || { echo "$$asm"; exit 1; }; \
	fused=$$(echo "$$asm" | grep -E '\b(FMADD|FMSUB|FNMADD|FNMSUB)[SD]\b'); \
	if [ -n "$$fused" ]; then \
		echo "arm64 fuses a multiply-add (docs/NUMERICS.md rule 3):"; echo "$$fused"; exit 1; \
	fi

# perf/ (the BENCHMARK.json benchmark) is a nested module that imports
# internal/client, internal/server and internal/splitsim directly. The
# root `go test ./...` type-checks it (TestEveryExportHasAReader), so a
# refactor there that breaks the benchmark's build fails tier-1; this
# target runs perf's own vet and tests.
perf-test:
	cd perf && $(GO) vet ./... && $(GO) test ./...

# examples/ is the public menos package's only non-test reader
# (DESIGN.md §8); `go test ./...` compiles it but runs nothing there.
# Each example exits non-zero on any failure and finishes in about a
# second.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/multiclient
	$(GO) run ./examples/scheduling
	$(GO) run ./examples/convergence
	$(GO) run ./examples/lifecycle

# A short fuzzing run of each decoder that reads bytes from outside the
# process: the split frame decoder and the checkpoint decoders (a
# migration's session snapshot, a parameter file). `go test ./...` runs
# only their seed corpora; a target that finds a failing input writes it
# under the package's testdata/fuzz/ and fails here.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadMessage$$' -fuzztime 10s ./internal/split
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSession$$' -fuzztime 10s ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s ./internal/checkpoint

# Race-checks the packages with real lock/atomic contention: the
# tensor worker pool and scratch arena, the model plane that hammers
# them from concurrent training loops and fills a new model's weights
# over the pool (model.New's parallel fill; the model tests build at
# four workers, e.g. TestConcurrentNoGradForwardSharesArena), the
# metrics registry and ring
# tracer, the wire protocol (version interop), the scheduler (including
# admission-control state flips), the batch-formation engine, the fleet
# controller (polls, placements and the merged-trace fetch),
# the activation wire codec (pool-parallel pack/unpack), the TCP serving loop and the simulator that drives
# them — and the integration packages that drive those paths together:
# core (live migration between two in-process servers, admin-plane
# goroutines), client (the pipelined loop against a live server),
# adapter (multi-adapter dispatch over the shared, mutex-guarded scratch
# arena), share (every session's handshake and teardown take the
# store's lock; concurrent instances forward over the shared base) and
# menos-fleetd (its /place, /drain, /trace and /metrics handlers on
# their own goroutines while the controller polls and rebalances).
test-race:
	$(GO) test -race ./internal/tensor ./internal/model ./internal/obs ./internal/split ./internal/quant ./internal/sched ./internal/batch ./internal/fleet ./internal/server ./internal/splitsim ./internal/core ./internal/client ./internal/adapter ./internal/share ./cmd/menos-fleetd

# Repeats the tests whose failures are rare interleavings or rare
# inputs: the scheduler's claim-versus-revoke hammer and the server's
# four-tenant contention run, one table over batching off and on (a parked
# activation grant is either claimed by its owner or revoked for someone
# else, never both, and nothing outlives a session), the routing of
# batchable requests by memory pressure, two tenants stepping at once
# on arenas of their own (each arena serves only its own session), a
# throttled batch shedding one member while its co-member steps on, a
# server closing while a serial or batched request waits for memory (the
# request leaves the queue ungranted and Close returns), a shedding
# server whose traffic stopped admitting a new client, an abandoned
# session's teardown giving back everything its one scheduler record
# held (the table, free, schedulable and parked bytes back where they
# were, arena series at 0, goroutines gone), a duplicate Hello refused
# while the live session steps on unchanged, menos-fleetd's
# /place and
# /drain handlers racing its poll and rebalance ticks (all four take
# the controller's fleet.Manager lock), and the ledger's writers racing
# its snapshots over more clients than it has accounts (each row is
# read from its family series and the rows add up to what was written),
# all under the race detector; and, over their time-seeded generators,
# the LayerNorm invariance property and the priced-demands property
# (memmodel's M_f and M_b against what a server body really holds, both
# families and adapter kinds, pool parallelism 1 and 4: 40 geometries a
# run, ≈ 1 s each).
test-stress:
	$(GO) test -race -count=20 -run 'TestClaimVersusRevokeHammer' ./internal/sched
	$(GO) test -race -count=20 -run TestLedgerConcurrentConservation ./internal/obs
	$(GO) test -race -count=20 -run '^(TestContentionIsFig3d|TestBatchingFollowsPressure|TestSessionsStepOnTheirOwnArenas|TestLiveBatchedServerShedsMembers|TestCloseReturnsWhileARequestWaits|TestSheddingServerReopensWhenTrafficStops|TestAbruptDisconnectReleasesInstance|TestDuplicateHelloIsRefused)$$' ./internal/server
	$(GO) test -race -count=20 -run TestHandlersRaceTheTicks ./cmd/menos-fleetd
	$(GO) test -count=500 -run 'TestLayerNormInvarianceProperty' ./internal/nn
	$(GO) test -count=40 -run 'TestPricedDemandsBoundTheBodyProperty' ./internal/memmodel

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of each kernel benchmark (every matmul shape's pool,
# serial and avx2 sub-benchmarks, again under -tags purego for the
# portable tile; MatMulT's pack at both panel widths, GELU, softmax,
# Adam's update, LayerNorm, the linear layer and attention), BenchmarkModelNew's pool and serial perf-mid build,
# BenchmarkClientSetup's tenant set-up against a live server, the sim
# kernel's dispatch, the scheduler's plain and 8-member grant cycles,
# a sim_fleet-shaped simulator run and its set-up alone, the root
# package's memory-policy sweeps, and one real split step over loopback
# TCP with its allocations (-benchmem). A smoke test, not a timing: it
# catches a kernel or handler that panics or allocates wildly under
# the -bench harness, and its numbers are no verdict on speed. In a test
# binary Scratch.GetUninit fills every tensor it hands out with NaN
# (poisonUninit) so that a read before a write shows, and every test
# keeps that fill; it was 8.9 % of BenchmarkSplitStepTCP's CPU when last
# profiled. Time the code with perf/run.sh. TestTileTier logs which
# kernel tier (avx512, avx2 or portable) the machine ran.
kernel-bench-smoke:
	$(GO) test -run '^TestTileTier$$' -v ./internal/tensor/
	$(GO) test -bench='BenchmarkMatMul|BenchmarkPackT|BenchmarkGELUForward|BenchmarkActivationWithDerivative|BenchmarkActivationBackward|BenchmarkLayerNormSums|BenchmarkSoftmaxRows|BenchmarkAdamUpdate' -benchtime=1x ./internal/tensor/
	$(GO) test -tags purego -run '^$$' -bench=BenchmarkMatMul -benchtime=1x ./internal/tensor/
	$(GO) test -run '^$$' -bench='BenchmarkLayerNorm|BenchmarkLinearForward' -benchtime=1x ./internal/nn/
	$(GO) test -run '^$$' -bench='BenchmarkAttention|BenchmarkModelNew' -benchtime=1x ./internal/model/
	$(GO) test -run '^$$' -bench=BenchmarkClientSetup -benchtime=1x ./internal/client/
	$(GO) test -run '^$$' -bench=BenchmarkDispatch -benchtime=1x ./internal/sim/
	$(GO) test -run '^$$' -bench=BenchmarkSchedulerCycle -benchtime=1x ./internal/sched/
	$(GO) test -run '^$$' -bench='BenchmarkRunFleet|BenchmarkFleetSetup' -benchtime=1x ./internal/splitsim/
	$(GO) test -run '^$$' -bench 'BenchmarkFig3$$|BenchmarkFig7$$|BenchmarkAblationMemoryPolicy$$' -benchtime=1x .
	$(GO) test -run '^$$' -bench '^BenchmarkSplitStepTCP$$' -benchmem -benchtime=1x .

# Multi-process end-to-end: builds menos-server, menos-client and
# menos-fleetd, launches a two-server fleet plus the control plane
# (default flags) on loopback, and asserts one live client migration
# with zero lost iterations, a bit-identical final loss vs an
# unmigrated control run, fleetd's placement and migration counters, a
# merged fleet trace with the migrated iteration stitched across both
# server processes, and zero sheds, GPU OOMs and identity mismatches on
# the servers' and fleetd's /metrics.json over the healthy run. Process logs, server flight
# recordings, the /metrics.json documents and the fleet trace land in
# e2e-artifacts/ (CI uploads them on failure).
e2e:
	MENOS_E2E_ARTIFACTS=$(CURDIR)/e2e-artifacts $(GO) test -tags e2e -timeout 240s -v ./e2e/

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# ci mirrors .github/workflows/ci.yml: the verify job's commands in the
# same order, then the race job. Keep the two in sync. `test` includes
# the root package's surface test (every exported identifier under
# internal/ has a reader) and the metric-catalog test; `examples` runs
# the five examples/ programs; `fuzz-smoke` fuzzes the three decoders
# for ten seconds each; `kernel-bench-smoke` is the verify job's last
# step. The bench-smoke job's paper-artifact smokes and its advisory
# base-vs-head comparison (bash perf/run.sh, then perf -compare) are
# not mirrored: the benchmark is perf/ (perf/README.md), and timings
# need a quiet machine.
ci: build vet fmt-check test test-purego test-v3 cross-build perf-test examples fuzz-smoke kernel-bench-smoke test-race test-stress

.PHONY: fmt-check vet

verify: build test test-purego test-v3 perf-test test-race test-stress
