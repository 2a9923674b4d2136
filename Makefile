# paragonio — reproduction of Smirni et al., HPDC 1996.
GO ?= go

.PHONY: all build test test-short vet vet-race vet-race-clientcache vet-race-faults vet-race-logtier fmt bench bench-smoke bench-json bench-diff tables experiments docs-verify service-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# Race-check the concurrent pieces: the parallel suite runner (several
# kernels run at once, one per goroutine), the kernel's coroutine
# handoff and cancellation, and the iosimd daemon (fair-share
# admission, sweep fan-out, flight coalescing, warm-start cache).
vet-race:
	$(GO) vet ./...
	$(GO) test -race ./internal/experiments/ ./internal/sim/ ./internal/server/

# Race-check the client cache tier: the lease-coherence property test
# (randomized sharing schedules against the version oracle), the
# client-tier unit tests, and the client-on golden digests.
vet-race-clientcache:
	$(GO) vet ./...
	$(GO) test -race ./internal/cache/ ./internal/pfs/
	$(GO) test -race -run 'ClientCache|ClientVariants' ./internal/experiments/

# Race-check the fault plane: the per-kind degraded golden digests, the
# empty-plan healthy-equivalence property, the pfs fault-injection
# behavior tests, and the server's fault-plan requests.
vet-race-faults:
	$(GO) vet ./...
	$(GO) test -race ./internal/faults/
	$(GO) test -race -run Fault ./internal/pfs/ ./internal/experiments/ ./internal/server/

# Race-check the log tier: the crash-replay property test (randomized
# writer/drain/crash schedules against the observer-built consistent-cut
# oracle), the log-tier unit tests, and the log-on healthy + degraded
# golden digests.
vet-race-logtier:
	$(GO) vet ./...
	$(GO) test -race ./internal/cache/
	$(GO) test -race -run 'LogTier|LogVariants' ./internal/experiments/

fmt:
	gofmt -l .

# One regeneration of every paper artifact benchmark and ablation.
bench:
	$(GO) test -run NONE -bench=. -benchmem -benchtime=1x .

# Single-iteration pass over every benchmark — a fast compile-and-run
# sanity check that the benchmark harness itself still works.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Machine-readable perf trajectory: run the kernel/PFS/suite benchmarks
# once and emit BENCH_<date>.json (ns/op, allocs/op, custom metrics,
# suite wall clock). Compare files across commits to track the trend.
bench-json:
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=1x ./... | tee bench.out
	$(GO) run ./cmd/benchjson -o BENCH_$$(date +%Y-%m-%d).json < bench.out
	@rm -f bench.out

# Compare a fresh single-iteration benchmark pass against the newest
# committed BENCH_<date>.json. Exits nonzero past the regression
# threshold; -benchtime=1x samples are noisy, so CI gates with a
# generous -threshold 1.0 -floor 100000 (fail only when a ≥100µs
# benchmark doubles; µs-scale 1x samples are timer noise).
bench-diff:
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=1x ./... | $(GO) run ./cmd/benchjson -o bench-new.json
	$(GO) run ./cmd/benchjson -diff $$(ls BENCH_*.json | sort | tail -1) bench-new.json
	@rm -f bench-new.json

# Regenerate the paper's tables and figures to stdout (and artifacts/).
tables:
	$(GO) run ./cmd/iotables -out artifacts

experiments:
	$(GO) run ./cmd/iotables -summary

# Run every shell command documented in README.md, docs/ADVISOR.md,
# docs/SERVICE.md, and docs/TIERS.md code fences, so the quickstarts
# cannot rot.
docs-verify:
	bash scripts/docs-verify.sh

# Build the iosimd daemon, boot it on an ephemeral port, and walk the
# service contract end to end: health, simulate (pinned to the golden
# digest), cache-hit re-request, batched sweep (repeated grid dedups
# fully), fault-injected and log-tier runs (pinned to their own golden
# digests), kill-and-restart warm start, metrics scrape.
service-smoke:
	bash scripts/service-smoke.sh

clean:
	rm -rf artifacts
