# Convenience targets; everything is plain `go` underneath.

.PHONY: all test race bench benchgate benchgate-baseline trace-gate loadgen openloop sortd sortc soak chaos chaos-quick perfbench-test experiments experiments-quick stress obs fmt vet lint cover

all: vet test

test:
	go test ./...

race:
	go test -race -count=1 ./...

bench:
	go test -bench=. -benchmem .

# Run the gate table: every cell times a subject against its floor on
# the same work (kernel vs slices.Sort, pooled vs fresh, binary vs JSON,
# 3 vs 1 cluster backends, QoS vs FIFO, ...) and every gate bounds the
# subject/floor cost ratio, by a contract constant or by drift from
# the checked-in BENCH_gate.json.
benchgate:
	go run ./cmd/benchgate

# Re-measure and overwrite BENCH_gate.json (run on the reference machine).
benchgate-baseline:
	go run ./cmd/benchgate -write -runs 5

# Gate the trace plane: race-run the request-tracing, burn-rate and
# flight-recorder tests, then smoke the gate table, whose observer and
# trace cells time instrumented sorts and servers against plain ones.
trace-gate:
	go test -race -count=1 -run 'TestTrace|TestRejectionSpans|TestBurn|TestMetricsProm|TestStageHist|TestSpanLogLapped|TestFlightRecorder|TestExemplars|TestPerfettoAddSpans|TestTeamRunTiming|TestRunStamps|TestHandlerTargetStages' ./internal/server ./internal/obs ./internal/native ./internal/loadgen
	go run ./cmd/benchgate -quick -runs 1

# Open-loop load generator against a live service. See cmd/loadgen for
# spec format, -record/-replay, and -capacity sweeps.
loadgen:
	go run ./cmd/loadgen -spec workload.json -url http://localhost:8080

# In-process open-loop soak: mixed classes, a burst, worker churn, with
# the server's per-class counters cross-checked against the client
# ledger. Race detector on.
openloop:
	go test -race -run TestOpenLoopSoak -count=1 -v ./internal/server

# The sort service: POST /sort on :8080, graceful drain on SIGTERM.
sortd:
	go run ./cmd/sortd

# The sample-sort coordinator: scatters key-range shards across sortd
# backends, k-way merges the results. Needs -backends (see cmd/sortc).
sortc:
	go run ./cmd/sortc -backends http://localhost:8080

# Long soak: concurrent clients, mixed sizes, worker churn mid-request,
# then a drain that must come back clean. Race detector on. The cluster
# leg churns whole backends under open-loop load and cross-checks the
# coordinator's accepted-shard ledger against each backend's own.
soak:
	go test -race -run 'TestSoak|TestClusterSoak' -count=1 ./internal/server ./internal/cluster

# Fault-injection sweep: adversary policies x P, certified
# against the wait-freedom op ceiling, with pram/native differentials.
chaos:
	go run ./cmd/chaos

chaos-quick:
	go run ./cmd/chaos -quick

# The end-to-end benchmark's self-test (its own module): every workload
# at tiny sizes, every metric printed with its unit, the oracles catching
# a flipped key. It is the only test that fails when a kernel emits a
# phase label or metric the traced run does not know.
perfbench-test:
	cd perfbench && go test -race -count=1 .

experiments:
	go run ./cmd/experiments

experiments-quick:
	go run ./cmd/experiments -quick

stress:
	go run ./cmd/stress -duration 1m

# Observability demo: a stress campaign with the live endpoint up
# (/metrics, /debug/vars, /debug/pprof/ on :6060) plus a native
# Perfetto trace written to obs-trace.json — open it at
# https://ui.perfetto.dev.
obs:
	go run ./cmd/trace -runtime native -n 100000 -out obs-trace.json
	go run ./cmd/stress -duration 30s -listen :6060

fmt:
	gofmt -w .

vet:
	go vet ./...

# Static analysis: vet always; staticcheck when installed (CI installs
# it, local runs degrade gracefully).
lint:
	go vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipped (go install honnef.co/go/tools/cmd/staticcheck@latest)" ; \
	fi

cover:
	go test -coverprofile=cover.out ./internal/... .
	go tool cover -func=cover.out | tail -1
