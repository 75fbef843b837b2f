# Developer entry points; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: build vet fmt lint lint-stats test examples experiments fuzz-smoke bench bench-smoke check

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

# Finding/suppression counts as JSON, for the CI artifact that tracks the
# lint surface over time. Always exits 0; `make lint` is the gate.
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

# The repository's benchmark (BENCHMARK.json, bench/README.md): every
# workload at full length, end-to-end and per-layer metrics.
bench:
	$(GO) run ./bench

# Two seconds of the headline workload over TCP and the binary codec; fails
# unless the result line says the delivery oracle held.
bench-smoke:
	$(GO) run ./bench -workload xr-stream -seconds 2 | tee /dev/stderr | grep -q '"correct":true'

check: build vet fmt lint test examples experiments
