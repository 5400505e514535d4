# Convenience targets; everything is plain `go` underneath.

.PHONY: all test race bench benchgate benchgate-baseline serve-gate serve-gate-baseline capacity-gate capacity-gate-baseline qos-gate qos-gate-baseline trace-gate cluster-gate cluster-gate-baseline wire-gate wire-gate-baseline loadgen openloop sortd sortc soak chaos chaos-quick perfbench-test experiments experiments-quick stress obs fmt vet lint cover

all: vet test

test:
	go test ./...

race:
	go test -race -count=1 ./...

bench:
	go test -bench=. -benchmem .

# Gate native-sort throughput against the checked-in BENCH_native.json.
benchgate:
	go run ./cmd/benchgate

# Re-measure and overwrite the baseline (run on the reference machine).
benchgate-baseline:
	go run ./cmd/benchgate -write

# Gate the serving layer against BENCH_serve.json: pooled-vs-fresh sort
# throughput (geomean must stay >= 1.0x) and sortd request throughput,
# faultless and with half the workers crash-stopped per sort.
serve-gate:
	go run ./cmd/benchgate -serve

serve-gate-baseline:
	go run ./cmd/benchgate -serve -write

# Gate serving capacity against BENCH_capacity.json: an open-loop
# loadgen sweep finds the offered-load knee where p99 crosses the
# 50 ms SLO; the knee must stay within tolerance of the baseline.
capacity-gate:
	go run ./cmd/benchgate -capacity

capacity-gate-baseline:
	go run ./cmd/benchgate -capacity -write

# Gate the QoS plane: one two-class overload trace replayed FIFO vs
# QoS-scheduled; the latency class's p99 must drop to <= 0.7x FIFO
# while bulk keeps >= 0.8x of its FIFO throughput. Self-relative, so
# it holds on any host; BENCH_qos.json is the certification record.
qos-gate:
	go run ./cmd/benchgate -qos

qos-gate-baseline:
	go run ./cmd/benchgate -qos -write

# Gate the trace plane: race-run the request-tracing, burn-rate and
# flight-recorder tests, then measure instrumented-vs-TraceOff serving
# throughput (geomean must stay within tolerance of 1.0x).
trace-gate:
	go test -race -count=1 -run 'TestTrace|TestRejectionSpans|TestBurn|TestMetricsProm|TestStageHist|TestSpanLogLapped|TestFlightRecorder|TestExemplars|TestPerfettoAddSpans|TestTeamRunTiming|TestRunStamps|TestHandlerTargetStages' ./internal/server ./internal/obs ./internal/native ./internal/loadgen
	go run ./cmd/benchgate -quick -observed -runs 1

# Gate the distributed tier against BENCH_cluster.json: a token-bucket
# capacity model makes admission (not CPU) the binding resource, so the
# 3-backend fleet must sustain >= 1.8x the 1-backend job rate even on a
# single-core host; the kill leg must redispatch and stay byte-identical
# to a faultless run.
cluster-gate:
	go run ./cmd/benchgate -cluster

cluster-gate-baseline:
	go run ./cmd/benchgate -cluster -write

# Gate the binary wire codec against BENCH_wire.json: binary vs JSON
# request throughput through the in-process serving path; the
# large-request binary/json ratio must stay >= 1.15x on both /sort and
# /shard, or the second codec is not paying its way.
wire-gate:
	go run ./cmd/benchgate -wire

wire-gate-baseline:
	go run ./cmd/benchgate -wire -write

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
