# Developer entry points; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: build vet fmt lint lint-stats test fuzz-smoke bench bench-smoke check

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

# go test fuzzes one target per invocation.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzBinaryRoundTrip -fuzztime 10s ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzPayloadDecode -fuzztime 10s ./internal/wire/

# The repository's benchmark (BENCHMARK.json, bench/README.md): every
# workload at full length, end-to-end and per-layer metrics.
bench:
	$(GO) run ./bench

# Two seconds of the headline workload over TCP and the binary codec; fails
# unless the result line says the delivery oracle held.
bench-smoke:
	$(GO) run ./bench -workload xr-stream -seconds 2 | tee /dev/stderr | grep -q '"correct":true'

check: build vet fmt lint test
