GO ?= go

.PHONY: build test test-purego test-v3 cross-build perf-test test-race test-stress bench bench-diff ci verify e2e

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The matmul tile and the exp-based kernels (GELU, SiLU, softmax) each
# have an AVX2 assembly form (amd64) and a portable Go twin (everything
# else). The purego tag forces the twins, so an amd64 machine tests the
# code every other GOARCH runs; cross-build keeps the non-amd64 build
# from rotting.
test-purego:
	$(GO) test -tags purego ./internal/tensor ./internal/nn ./internal/model ./internal/adapter

# At GOAMD64=v3 the compiler may assume FMA hardware, and the language
# lets it fuse x*y + z wherever the product is not explicitly rounded.
# The twins round every such product with float32(x*y); one that does
# not would, once fused, stop matching the assembly, and the
# asm-vs-portable parity tests in these packages fail here rather than
# on someone's arm64 machine. A forward guard: the Go 1.24 amd64 back
# end still emits MULSS+ADDSS at v3, so today only arm64 fuses, and the
# cross-build below compiles that target without running it.
test-v3:
	GOAMD64=v3 $(GO) test ./internal/tensor ./internal/nn ./internal/model

cross-build:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor

# perf/ (the BENCHMARK.json benchmark) is a nested module, so
# `go test ./...` from the root never compiles it. It imports
# internal/client, internal/server and internal/splitsim directly; this
# target is what catches a refactor there that breaks the benchmark.
perf-test:
	cd perf && $(GO) vet ./... && $(GO) test ./...

# Race-checks the packages with real lock/atomic contention: the
# tensor worker pool and scratch arena, the model plane that hammers
# them from concurrent training loops, the metrics registry and ring
# tracer, the wire protocol (version interop), the scheduler (including
# admission-control state flips), the batch-formation engine, the fleet
# manager (concurrent scrape ingestion), the federated time-series
# store, the alert engine, the activation wire codec (pool-parallel
# pack/unpack), the TCP serving loop and the simulator that drives
# them — and the integration packages that drive those paths together:
# core (live migration between two in-process servers, admin-plane
# goroutines), client (the pipelined loop against a live server) and
# adapter (multi-adapter dispatch over the shared, mutex-guarded scratch
# arena).
test-race:
	$(GO) test -race ./internal/tensor ./internal/model ./internal/obs ./internal/split ./internal/quant ./internal/sched ./internal/batch ./internal/fleet ./internal/tsdb ./internal/alert ./internal/server ./internal/splitsim ./internal/core ./internal/client ./internal/adapter

# Repeats the tests whose failures are rare interleavings or rare
# inputs: the scheduler's claim-versus-revoke hammer and the server's
# four-tenant contention run (a parked activation grant is either
# claimed by its owner or revoked for someone else, never both, and
# nothing outlives a session) under the race detector, and the LayerNorm
# invariance property over its time-seeded generator.
test-stress:
	$(GO) test -race -count=20 -run 'TestClaimVersusRevokeHammer' ./internal/sched
	$(GO) test -race -count=20 -run 'TestContentionIsFig3d' ./internal/server
	$(GO) test -count=500 -run 'TestLayerNormInvarianceProperty' ./internal/nn

bench:
	$(GO) test -bench=. -benchmem ./...

# Multi-process end-to-end: builds menos-server, menos-client and
# menos-fleetd, launches a two-server fleet plus the control plane on
# loopback (alerting and trace federation enabled), and asserts one
# live client migration with zero lost iterations, a bit-identical
# final loss vs an unmigrated control run, a merged fleet trace with
# the migrated iteration stitched across both server processes, and
# zero alerts fired over the healthy run. Process logs, flight
# recordings and the alertz/fleet-trace documents land in
# e2e-artifacts/ (CI uploads them on failure).
e2e:
	MENOS_E2E_ARTIFACTS=$(CURDIR)/e2e-artifacts $(GO) test -tags e2e -timeout 240s -v ./e2e/

# bench-diff runs the paper-workload benchmark and compares it against
# the committed baseline; exits non-zero when the server compute-time
# p50 regresses past the threshold. RUNNER_CLASS keys the baseline per
# machine class (bench/baseline-<class>.json) so CI can diff against
# numbers recorded on its own runner type. Refresh a baseline with:
# go run ./cmd/menos-benchdiff -write-baseline [-runner-class <class>]
bench-diff:
	$(GO) run ./cmd/menos-benchdiff $(if $(RUNNER_CLASS),-runner-class $(RUNNER_CLASS))

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# ci mirrors .github/workflows/ci.yml: the verify job's commands in the
# same order, then the race job. Keep the two in sync.
ci: build vet fmt-check test test-purego test-v3 cross-build perf-test test-race test-stress

.PHONY: fmt-check vet

verify: build test test-purego test-v3 perf-test test-race test-stress
