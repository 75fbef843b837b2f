# Developer entry points; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: build vet fmt lint lint-stats test examples experiments fuzz-smoke race-suites hotpath-smoke bench bench-smoke check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	test -z "$$(gofmt -l . | tee /dev/stderr)"

# The repository's invariant analyzers (clockcheck, batchshare, guardedby,
# gaugekey, lockorder, leakcheck, hotpath). Any diagnostic fails the build;
# see internal/analysis/doc.go.
lint:
	$(GO) run ./cmd/scilint ./...

# Finding/suppression counts and the sizes of the reachability report's
# groups (exported names only experiments, or nothing, reach) as JSON, for
# the CI artifact that tracks the lint surface over time. Always exits 0;
# `make lint` is the gate.
lint-stats:
	$(GO) run ./cmd/scilint -stats ./... | tee lint-stats.json

test:
	$(GO) test -race -shuffle=on ./...

# Every examples/* program, built once and run with a timeout; each must
# exit 0. capa exits non-zero unless the paper's outcome (Bob → P1,
# John → P4) holds.
EXAMPLES := $(notdir $(wildcard examples/*))

examples:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/" ./examples/... && \
	for e in $(EXAMPLES); do \
		echo "== examples/$$e"; \
		timeout 60 "$$dir/$$e" || { echo "examples/$$e failed (exit $$?)"; exit 1; }; \
	done

# Every registered experiment (internal/sim) at the default sizes, timing
# bars included; fails if any bar fails. BENCH_experiments.json records each
# run's tables and verdict.
experiments:
	$(GO) run ./cmd/scibench -json BENCH_experiments.json

# go test fuzzes one target per invocation.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzBinaryRoundTrip -fuzztime 10s ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzPayloadRoundTrip -fuzztime 10s ./internal/wire/
	$(GO) test -run xxx -fuzz '^FuzzPayloadDecode$$' -fuzztime 10s ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzDecoderRobustness -fuzztime 10s ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzRingModel -fuzztime 10s ./internal/eventbus/
	$(GO) test -run xxx -fuzz FuzzProfileIndex -fuzztime 10s ./internal/profile/
	$(GO) test -run xxx -fuzz FuzzFabricDeliver -fuzztime 10s ./internal/scinet/

# The concurrency-heavy packages, race-checked twice in shuffled order; then
# the SCINET interest and hierarchy convergence tests ten times over, since
# their generation rules only break under rare interleavings, and likewise
# the resolver cache and profile memo, departure, repair and shared-plan
# tests, the owner index, the shared source sets and the read-locked
# type-equivalence queries, the TCP tests, whose connections are read and
# written at both ends, the per-origin loss ledgers, whose tables
# install under concurrent charges, and the lock-free snapshots the query
# path reads (the Range's members, the live set, the profile index, the
# resolver cache), which writers clear before the generation moves.
race-suites:
	$(GO) test -race -shuffle=on -count=2 ./internal/flow/ ./internal/eventbus/ ./internal/rangesvc/ ./internal/scinet/ ./internal/transport/ ./internal/wire/ ./internal/mediator/ ./internal/profile/ ./internal/configuration/ ./internal/resolver/ ./internal/server/
	$(GO) test -race -count=10 -run 'Interest|Hierarchy|SuperPeer' ./internal/scinet/
	$(GO) test -race -count=10 -run 'ResolveCache' ./internal/resolver/
	$(GO) test -race -count=10 -run 'ResolveCache|SubmitAnswers|Advert|Memo' ./internal/server/
	$(GO) test -race -count=10 -run 'Ack|Credit|Piggyback|Depart|Close' ./internal/rangesvc/
	$(GO) test -race -count=10 -run 'Depart|Teardown|Repair|Churn' ./internal/configuration/ ./internal/mediator/ ./internal/server/
	$(GO) test -race -count=10 -run 'Plan|Prime' ./internal/configuration/ ./internal/resolver/ ./internal/server/
	$(GO) test -race -count=20 -run 'Failure|Eviction|Tomb' ./internal/overlay/
	$(GO) test -race -count=3 -run 'Concurrent' ./internal/guid/
	$(GO) test -race -count=10 -run 'Owne|Table|Race|Sources|Equivalent|Named' ./internal/mediator/ ./internal/eventbus/ ./internal/ctxtype/ ./internal/configuration/
	$(GO) test -race -count=10 -run 'TCP' ./internal/transport/ ./internal/rangesvc/ ./internal/scinet/
	$(GO) test -race -count=10 -run 'Ledger|Table|Drop|Quota|Shed' ./internal/guid/ ./internal/metrics/ ./internal/eventbus/ ./internal/flow/ ./internal/server/
	$(GO) test -race -count=10 -run 'Snapshot' ./internal/profile/ ./internal/registry/ ./internal/resolver/ ./internal/server/

# The zero-allocation hot-path checks, run as benchmarks for 100 iterations,
# and the query path run from every processor at once.
hotpath-smoke:
	$(GO) test -run xxx -bench Hotpath -benchtime 100x ./internal/eventbus/ ./internal/wire/ ./internal/flow/ ./internal/scinet/ ./internal/server/

# The repository's benchmark (BENCHMARK.json, bench/README.md): every
# workload at full length, end-to-end and per-layer metrics.
bench:
	$(GO) run ./bench

# Two seconds each of the headline workload over TCP and the binary codec,
# the query path (resolver, configuration, server) and local dispatch; fails
# unless every result line says the workload's oracle held.
BENCH_SMOKE := xr-stream query-mix local-fanout

bench-smoke:
	@for w in $(BENCH_SMOKE); do \
		$(GO) run ./bench -workload $$w -seconds 2 | tee /dev/stderr | grep -q '"correct":true' || { echo "bench-smoke: $$w failed"; exit 1; }; \
	done

# Every CI gate that needs no download, in CI's order. CI also installs and
# runs staticcheck and govulncheck, and records lint-stats (never a gate).
check: build vet fmt lint test examples fuzz-smoke race-suites hotpath-smoke bench-smoke experiments
