# Developer entry points. `make verify` runs exactly what CI runs
# (.github/workflows/ci.yml), so a green local verify means a green PR.

GO ?= go

.PHONY: build vet lint test race bench bench-gate chaos obs-smoke serve-smoke scale-smoke verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The project's own determinism/concurrency analyzers (internal/lint):
# norand, nowallclock, floateq, senderr, maporder, hotalloc, lockscope,
# gorolife (see DESIGN.md §12 for the catalog).
lint:
	$(GO) run ./cmd/p2plint ./...

test:
	$(GO) test ./...

# The layers with real goroutines: sockets (netpeer), the loop core
# they drive (dprcore), the transport fabric, the simulator
# (compute-phase batching), the worker pool, and everything the
# parallel kernels touch.
race:
	$(GO) test -race ./internal/netpeer/... ./internal/dprcore/... ./internal/transport/... \
		./internal/simnet/... ./internal/vecmath/... ./internal/pagerank/... \
		./internal/engine/... ./internal/par/... ./internal/telemetry/... ./internal/serve/...

# Failure-path suite under the race detector: crash/restart churn in
# both runtimes, checkpointed recovery, the supervisor, the reliable
# ack/retry/backoff layer, and the partition/straggler fault lattice
# (see DESIGN.md §11 and §17) — plus the end-to-end serve-under-
# partition smoke (dprnode -serve through a healing cut).
chaos:
	$(GO) test -race -count=1 -run 'Churn|KillRestart|Supervisor|Snapshot|Checkpoint|Reliable|Partition|Straggler' \
		./internal/dprcore/... ./internal/engine/... ./internal/netpeer/...
	$(GO) test -run TestServeChaosPartitionDprnode -v ./internal/clitest/

# End-to-end observability check: boot a 3-ranker dprnode cluster with
# -obs, scrape /metrics while it runs, and require the round counters
# to advance between scrapes (internal/clitest).
obs-smoke:
	$(GO) test -run TestDprnodeObsSmoke -v ./internal/clitest/

# End-to-end serving check: dprnode -demo with the query tier and load
# generator on (HTTP /search + query metrics on /metrics), and the
# dprsim serving sweep at a toy scale (internal/clitest).
serve-smoke:
	$(GO) test -run TestServeSmoke -v ./internal/clitest/

# Kernel + transmission benchmarks with allocation counts, pinned to one
# CPU and recorded as JSON so runs are diffable (see BENCH_kernels.json
# for the committed reference numbers; internal/benchgate holds the one
# list of gated kernels).
bench:
	$(GO) run ./cmd/benchjson > BENCH_kernels.json
	@cat BENCH_kernels.json

# One decade of the paper-scale experiment (N=10⁴ rankers, bounded
# virtual-time horizon) end to end: calendar-queue scheduler, batched
# delivery, and the §4.4–4.5 model-vs-telemetry validation. Takes a
# minute or two; CI runs it as a non-blocking job. The full measured
# curve (10³–10⁵) is `go run ./cmd/dprsim -exp scale`.
scale-smoke:
	P2PRANK_SCALE=1 $(GO) test -run TestScaleSmoke -v -timeout 20m ./internal/experiments/

# Perf ratchet: re-run the gated kernels and compare against the
# committed baseline. The alloc gate always applies; set
# BENCHGATE_STRICT=1 to also fail >10% ns/op regressions.
bench-gate:
	$(GO) run ./cmd/benchgate

verify: build vet lint test race chaos obs-smoke serve-smoke bench-gate
	@echo "verify: all checks passed"
