package main

// The metric catalogue. BENCHMARK.json at the repository root mirrors
// these tables (names, units, direction, bounds); the self-test fails
// when the two drift apart. Moves records, for each per-layer metric,
// the end-to-end metric and workload it is predicted to move, so a
// performance change can name its target before it is measured.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
	Moves  string  // per-layer only: predicted end-to-end target
}

// endToEnd is what a user of the system sees. Every workload reports
// every metric; "small" and "bulk" name each workload's two operation
// classes (see README.md). The bounds are wide because absolute speed
// on a shared 2-CPU host drifts by around ten percent between runs a
// few minutes apart; stdlib_ratio, timed against an interleaved floor,
// drifts least.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "keys_per_s", Unit: "keys/s", Better: "higher", Bound: 0.25},
	{Name: "stdlib_ratio", Unit: "x", Better: "lower", Bound: 0.2},
	{Name: "req_per_s", Unit: "req/s", Better: "higher", Bound: 0.25},
	{Name: "small.p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "small.p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "bulk.p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "bulk.p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_heap_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// Prediction targets shared by several per-layer metrics.
const (
	movesKeyed   = "keys_per_s, stdlib_ratio on keyed-bulk"
	movesCrew    = "stdlib_ratio on keyed-bulk, bulk.p50_ms on serve-mix; unchanged: small.* on serve-mix, stream merge"
	movesBatch   = "small.p50_ms, small.p99_ms on serve-mix"
	movesQueue   = "bulk.p50_ms, bulk.p99_ms, req_per_s on serve-mix"
	movesJSON    = "small.p50_ms, small.p99_ms on serve-mix"
	movesWire    = "bulk.p50_ms, bulk.p99_ms on serve-mix"
	movesStream  = "keys_per_s, peak_heap_mib on stream-spill"
	movesCluster = "keys_per_s, stdlib_ratio on cluster-gather; unchanged: keyed-bulk"
	movesTrace   = "none: the cost of the benchmark's own tracing"
)

// perLayer is reported by the traced run. A layer a workload never
// crosses reports 0 there.
var perLayer = []metricDef{
	// wfsort facade and internal/pool, timed around KeyedSorter.SortContext.
	{Name: "wfsort.sort_ms.s", Unit: "ms", Better: "lower", Moves: movesKeyed},
	{Name: "wfsort.sort_ms.m", Unit: "ms", Better: "lower", Moves: movesKeyed},
	{Name: "wfsort.sort_ms.l", Unit: "ms", Better: "lower", Moves: movesKeyed},
	{Name: "wfsort.self_ms.s", Unit: "ms", Better: "lower", Moves: movesKeyed},
	{Name: "wfsort.self_ms.m", Unit: "ms", Better: "lower", Moves: movesKeyed},
	{Name: "wfsort.self_ms.l", Unit: "ms", Better: "lower", Moves: movesKeyed},
	{Name: "pool.hit_ratio", Unit: "ratio", Better: "higher", Moves: movesKeyed},
	{Name: "pool.builds", Unit: "count", Better: "lower", Moves: movesKeyed + "; setup_s when work moves into set-up"},

	// internal/native crew and internal/core phases, via wfsort.WithSortTrace
	// (keyed-bulk) or the server's request spans (serve-mix).
	{Name: "crew.queue_ms", Unit: "ms", Better: "lower", Moves: movesCrew},
	{Name: "crew.run_ms.s", Unit: "ms", Better: "lower", Moves: movesCrew},
	{Name: "crew.run_ms.m", Unit: "ms", Better: "lower", Moves: movesCrew},
	{Name: "crew.run_ms.l", Unit: "ms", Better: "lower", Moves: movesCrew},
	{Name: "crew.phase_ms.build", Unit: "ms", Better: "lower", Moves: movesCrew},
	{Name: "crew.phase_ms.sum", Unit: "ms", Better: "lower", Moves: movesCrew},
	{Name: "crew.phase_ms.place", Unit: "ms", Better: "lower", Moves: movesCrew},

	// internal/server, from /metrics and Stats(); on cluster-gather these
	// are the two backends' /shard traffic.
	{Name: "server.stage_ms.admit.mean", Unit: "ms", Better: "lower", Moves: movesBatch},
	{Name: "server.stage_ms.admit.p99", Unit: "ms", Better: "lower", Moves: movesBatch},
	{Name: "server.stage_ms.sem.mean", Unit: "ms", Better: "lower", Moves: movesBatch},
	{Name: "server.stage_ms.sem.p99", Unit: "ms", Better: "lower", Moves: movesBatch},
	{Name: "server.stage_ms.decode.mean", Unit: "ms", Better: "lower", Moves: movesBatch},
	{Name: "server.stage_ms.decode.p99", Unit: "ms", Better: "lower", Moves: movesBatch},
	{Name: "server.stage_ms.batch.mean", Unit: "ms", Better: "lower", Moves: movesBatch},
	{Name: "server.stage_ms.batch.p99", Unit: "ms", Better: "lower", Moves: movesBatch},
	{Name: "server.stage_ms.queue.mean", Unit: "ms", Better: "lower", Moves: movesQueue},
	{Name: "server.stage_ms.queue.p99", Unit: "ms", Better: "lower", Moves: movesQueue},
	{Name: "server.stage_ms.sort.mean", Unit: "ms", Better: "lower", Moves: movesQueue},
	{Name: "server.stage_ms.sort.p99", Unit: "ms", Better: "lower", Moves: movesQueue},
	{Name: "server.stage_ms.merge.mean", Unit: "ms", Better: "lower", Moves: movesBatch},
	{Name: "server.stage_ms.merge.p99", Unit: "ms", Better: "lower", Moves: movesBatch},
	{Name: "server.stage_ms.encode.mean", Unit: "ms", Better: "lower", Moves: movesQueue},
	{Name: "server.stage_ms.encode.p99", Unit: "ms", Better: "lower", Moves: movesQueue},
	{Name: "server.batch_fill", Unit: "req/batch", Better: "higher", Moves: movesBatch},
	{Name: "server.batched_frac", Unit: "ratio", Better: "higher", Moves: movesBatch},
	{Name: "server.rejected", Unit: "count", Better: "lower", Moves: movesQueue},
	{Name: "server.errors", Unit: "count", Better: "lower", Moves: movesQueue},

	// internal/wire and JSON from the client side; HTTP overhead is the
	// round trip minus the server's own span minus the no-op floor.
	{Name: "client.encode_ms.json", Unit: "ms", Better: "lower", Moves: movesJSON},
	{Name: "client.encode_ms.wire", Unit: "ms", Better: "lower", Moves: movesWire},
	{Name: "client.decode_ms.json", Unit: "ms", Better: "lower", Moves: movesJSON},
	{Name: "client.decode_ms.wire", Unit: "ms", Better: "lower", Moves: movesWire},
	{Name: "client.rtt_ms.small", Unit: "ms", Better: "lower", Moves: movesJSON},
	{Name: "client.rtt_ms.bulk", Unit: "ms", Better: "lower", Moves: movesWire},
	{Name: "client.http_ms.small", Unit: "ms", Better: "lower", Moves: movesJSON},
	{Name: "client.http_ms.bulk", Unit: "ms", Better: "lower", Moves: movesWire},
	{Name: "floor.noop_rtt_ms", Unit: "ms", Better: "lower", Moves: "none: the loopback HTTP floor"},

	// stream.go, internal/merge and the spill file.
	{Name: "stream.read_ms", Unit: "ms", Better: "lower", Moves: movesStream},
	{Name: "stream.sink_ms", Unit: "ms", Better: "lower", Moves: movesStream},
	{Name: "stream.run_phase_ms", Unit: "ms", Better: "lower", Moves: movesStream},
	{Name: "stream.merge_phase_ms", Unit: "ms", Better: "lower", Moves: movesStream + "; a merge change moves only this"},
	{Name: "stream.chunks", Unit: "count", Better: "lower", Moves: movesStream},
	{Name: "stream.spill_mib", Unit: "MiB", Better: "lower", Moves: movesStream + " (computed from wire.BlockLen)"},
	{Name: "stream.heap_mib.max", Unit: "MiB", Better: "lower", Moves: "peak_heap_mib on stream-spill"},
	{Name: "floor.chunk_sort_ms", Unit: "ms", Better: "lower", Moves: "none: the in-memory chunk sort floor"},

	// internal/cluster, through a timing Transport around each backend.
	{Name: "cluster.sort_ms", Unit: "ms", Better: "lower", Moves: movesCluster},
	{Name: "cluster.shard_ms.p50", Unit: "ms", Better: "lower", Moves: movesCluster},
	{Name: "cluster.shard_ms.p99", Unit: "ms", Better: "lower", Moves: movesCluster},
	{Name: "cluster.shards_per_sort", Unit: "count", Better: "lower", Moves: movesCluster},
	{Name: "cluster.shard_balance", Unit: "x", Better: "lower", Moves: movesCluster},
	{Name: "cluster.coord_self_ms", Unit: "ms", Better: "lower", Moves: movesCluster + "; a splitter or merge change moves this"},
	{Name: "cluster.redispatches", Unit: "count", Better: "lower", Moves: movesCluster},
	{Name: "cluster.backpressure", Unit: "count", Better: "lower", Moves: movesCluster},
	{Name: "backend.stage_ms.decode", Unit: "ms", Better: "lower", Moves: movesCluster},
	{Name: "backend.stage_ms.sort", Unit: "ms", Better: "lower", Moves: movesCluster},
	{Name: "backend.stage_ms.encode", Unit: "ms", Better: "lower", Moves: movesCluster},

	// Floors: the standard library on identical inputs, per operation.
	{Name: "floor.stdlib_ms", Unit: "ms", Better: "lower", Moves: "none: the stdlib floor behind stdlib_ratio"},
	{Name: "floor.stdlib_ms.s", Unit: "ms", Better: "lower", Moves: "none: the stdlib floor behind stdlib_ratio"},
	{Name: "floor.stdlib_ms.m", Unit: "ms", Better: "lower", Moves: "none: the stdlib floor behind stdlib_ratio"},
	{Name: "floor.stdlib_ms.l", Unit: "ms", Better: "lower", Moves: "none: the stdlib floor behind stdlib_ratio"},

	// The oracle, and the tracing overhead: untraced/traced for rates,
	// traced/untraced for costs, so above 1 always means tracing cost.
	{Name: "oracle.fail_frac", Unit: "ratio", Better: "lower", Moves: "every end-to-end metric: a failed operation counts as attempted"},
	{Name: "trace_overhead.keys_per_s", Unit: "x", Better: "lower", Moves: movesTrace},
	{Name: "trace_overhead.stdlib_ratio", Unit: "x", Better: "lower", Moves: movesTrace},
	{Name: "trace_overhead.req_per_s", Unit: "x", Better: "lower", Moves: movesTrace},
	{Name: "trace_overhead.small.p50_ms", Unit: "x", Better: "lower", Moves: movesTrace},
	{Name: "trace_overhead.small.p99_ms", Unit: "x", Better: "lower", Moves: movesTrace},
	{Name: "trace_overhead.bulk.p50_ms", Unit: "x", Better: "lower", Moves: movesTrace},
	{Name: "trace_overhead.bulk.p99_ms", Unit: "x", Better: "lower", Moves: movesTrace},
	{Name: "trace_overhead.peak_heap_mib", Unit: "x", Better: "lower", Moves: movesTrace},
}

// findDef returns the definition of a metric name in defs.
func findDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
