# Development targets for ctxres. `make` (or `make check`) is the default
# gate: gofmt + vet + build + full test suite + race-mode run of the
# packages with real concurrency (the parallel checker and the middleware
# around it) + vet and unit tests of the nested benchmark module, which
# imports internal/... and so breaks on internal-API changes that tier-1
# alone would not notice.

GO ?= go
FUZZTIME ?= 30s
SOAKTIME ?= 3m

.DEFAULT_GOAL := check

.PHONY: check fmt build test race bench-module loc bench bench-smoke vet cover fuzz-smoke smoke soak

check: fmt vet build test race bench-module

# fmt fails when gofmt would change a file, and names it.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/constraint ./internal/middleware ./internal/pool ./internal/wal ./internal/daemon/... ./internal/cluster ./internal/metrics ./internal/telemetry ./internal/health ./internal/soak ./internal/testutil/leakcheck

bench-module:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

# loc is the one agreed counter for the ROADMAP's code-size goal: non-test
# Go lines outside the nested benchmark module.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

# soak runs the chaos storms in internal/soak for SOAKTIME (default 3m)
# under the race detector: overload bursts, a flapping corrupted source,
# poisoned checks, and transport chaos against a live daemon (TestSoakStorm),
# a push-delivery storm with flapping slow subscribers
# (TestSoakSubscriberStorm), and the leader-kill gauntlet
# (TestSoakFailoverGauntlet): storm a replicated leader, kill it
# mid-storm, promote the follower with an epoch bump, and assert no
# acked write is lost while a resurrected stale leader sheds every
# write with the typed stale-leader code. All legs assert typed
# shedding, breaker trip + half-open recovery, bounded memory, and no
# goroutine leaks. CI runs this nightly.
soak:
	CTXRES_SOAK=$(SOAKTIME) $(GO) test -race -v -run 'TestSoak' -timeout 30m ./internal/soak

# bench runs the repository's one benchmark harness (bench/, described by
# BENCHMARK.json; see bench/README.md for the run shape and flags) after
# the root package's Go microbenchmarks.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .
	$(GO) run -C bench .

# bench-smoke is the CI-sized slice of `make bench`: the same five
# workloads at a twentieth of their budget (~12 s), teardown checks
# included.
bench-smoke:
	$(GO) run -C bench . -scale 0.05

# smoke boots real ctxmwd processes: /metrics scrape, pushed
# subscription, router round-trip, leader kill-and-promote, a
# self-fenced stale leader, and a router failover across a replica set.
smoke:
	./scripts/smoke.sh

vet:
	$(GO) vet ./...

cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Short deterministic-budget fuzz pass over every fuzz target: the
# constraint parser/evaluator, the WAL frame and segment scanners, the
# trace reader shared with `ctxwal dump`, the daemon's binary wire framing
# and batch-submit decode paths, and the pool against its scan-based model
# (an execution there compares every view after every step, so minimizing
# each input that reaches new coverage is capped at a second, or it would
# take the whole budget).
fuzz-smoke:
	$(GO) test ./internal/constraint -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/constraint -run='^$$' -fuzz=FuzzLoadConstraints -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/constraint -run='^$$' -fuzz=FuzzDifferentialParallel -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal -run='^$$' -fuzz=FuzzRecordRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wal -run='^$$' -fuzz=FuzzSegmentScan -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzTraceRead -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/daemon -run='^$$' -fuzz=FuzzBinaryFrameRead -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/daemon -run='^$$' -fuzz=FuzzBinaryFrameRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/daemon -run='^$$' -fuzz=FuzzBatchSubmitDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/pool -run='^$$' -fuzz=FuzzPoolModel -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
