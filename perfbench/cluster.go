package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"time"

	"wfsort/internal/cluster"
	"wfsort/internal/server"
	"wfsort/internal/wire"
)

var clusterGather = workload{
	name:   "cluster-gather",
	why:    "one caller sorting ~1M-key and ~88K-key inputs through the sample-sort coordinator over two in-process sortd backends: the only workload running splitter, scatter and gather merge",
	setUp:  setUpCluster,
	floors: map[string]string{"cluster.sort": "floor.stdlib"},
}

// clusterShape sizes cluster-gather's inputs and the coordinator's
// shard cap. A small input splits into two shards of about 44K keys,
// one per backend, so neither backend time-slices two sorts. A bulk
// input splits into 20-22 shards of about 46K keys. Every shard stays
// inside the 32769-65536-key size class, near its geometric middle,
// so splitter noise (about 10% per shard) never moves one across a
// class boundary. With the coordinator's default cap of 65536 a bulk
// input gives shards of 61-65.5K keys, and the ones the splitter
// pushes past 65536 pay the next class's padding: bulk latency then
// swung between 1.0 and 1.9 s within one run.
type clusterShape struct{ smallLo, smallHi, bulkLo, bulkHi, shardKeys int }

func clusterShapeFor(tiny bool) clusterShape {
	if tiny {
		return clusterShape{smallLo: 10_000, smallHi: 16_000, bulkLo: 70_000, bulkHi: 90_000, shardKeys: 8_000}
	}
	return clusterShape{smallLo: 80_000, smallHi: 96_000, bulkLo: 950_000, bulkHi: 1_050_000, shardKeys: 48_000}
}

// clusterCycle is the closed loop's schedule: one bulk sort, then seven
// small ones. Small sorts range over 3x in latency for no reason their
// size or shard balance shows, so they need a hundred samples a run for
// p99 not to be the single slowest one. Runs end on a cycle boundary,
// so every run measures the same mix.
var clusterCycle = [...]bool{true, false, false, false, false, false, false, false}

// shardCall is one SortShard call as the timing transport saw it.
type shardCall struct {
	start, end time.Time
	keys       int
}

// timedTransport is the benchmark's clock around one backend: it
// records every shard call of the current sort, and in the self-test
// flips one key of each reply while keeping the reply's own ledger
// consistent.
type timedTransport struct {
	cluster.Transport
	corrupt bool

	mu     sync.Mutex
	calls  []shardCall
	tr     *tracer
	parent uint64
	req    uint64
}

func (t *timedTransport) SortShard(ctx context.Context, sr cluster.ShardRequest) (*cluster.ShardReply, error) {
	t0 := time.Now()
	reply, err := t.Transport.SortShard(ctx, sr)
	t1 := time.Now()
	if t.corrupt && err == nil && reply.Status == http.StatusOK && len(reply.Sorted) > 0 {
		reply.Sorted[len(reply.Sorted)/2] ^= 1
		reply.Sum, reply.Xor = wire.Fold(reply.Sorted)
	}
	t.mu.Lock()
	t.calls = append(t.calls, shardCall{start: t0, end: t1, keys: len(sr.Keys)})
	tr, parent, req := t.tr, t.parent, t.req
	t.mu.Unlock()
	tr.add("cluster.shard", parent, req, t0, t1)
	return reply, err
}

// next starts recording a new sort and returns the previous one's calls.
func (t *timedTransport) next(tr *tracer, parent, req uint64) []shardCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	calls := t.calls
	t.calls, t.tr, t.parent, t.req = nil, tr, parent, req
	return calls
}

type clusterInst struct {
	p        params
	shape    clusterShape
	backends []*server.Server
	timers   []*timedTransport
	coord    *cluster.Coordinator
	in       []int64
	want     []int64
	r        *rand.Rand
	calls    int
}

func setUpCluster(p params) (instance, error) {
	sh := clusterShapeFor(p.tiny)
	in := &clusterInst{
		p: p, shape: sh,
		in: make([]int64, sh.bulkHi), want: make([]int64, sh.bulkHi),
		r: newRand(p.seed, 1),
	}
	var ts []cluster.Transport
	for i := 0; i < 2; i++ {
		srv, err := server.New(server.Config{Workers: 1})
		if err != nil {
			in.close()
			return nil, err
		}
		in.backends = append(in.backends, srv)
		t := &timedTransport{
			Transport: &cluster.HandlerBackend{Handler: srv.Handler(), Label: fmt.Sprintf("b%d", i), Wire: true},
			corrupt:   p.corrupt,
		}
		in.timers = append(in.timers, t)
		ts = append(ts, t)
	}
	coord, err := cluster.New(cluster.Config{Backends: ts, ShardKeys: sh.shardKeys})
	if err != nil {
		in.close()
		return nil, err
	}
	in.coord = coord
	// Warm-up: one small-band sort, two shards of about 44K keys, builds
	// both backends' shard size class. Set-up sorts the same input every
	// time, so a bigger warm-up, with more and less even shards, would
	// make an unlucky seed pay the next class on every set-up.
	keys := in.in[:(sh.smallLo+sh.smallHi)/2]
	genKeys(newRand(p.seed, 0), keys)
	if _, err := coord.Sort(context.Background(), "default", "", keys); err != nil && !p.corrupt {
		in.close()
		return nil, fmt.Errorf("warm-up sort: %w", err)
	}
	return in, nil
}

func (in *clusterInst) close() {
	if in.coord != nil {
		in.coord.Close()
	}
	for _, b := range in.backends {
		b.Shutdown(context.Background())
	}
}

func (in *clusterInst) handlers() []http.Handler {
	var hs []http.Handler
	for _, b := range in.backends {
		hs = append(hs, b.Handler())
	}
	return hs
}

func (in *clusterInst) measure(d time.Duration, tr *tracer) (*pass, error) {
	ps := newPass()
	var (
		lat                  latencies
		keys, sysNs, floorNs int64
		selfNs               int64
		shardMs              []float64
		shards, balance      float64
	)
	statsBefore := in.coord.Stats()
	srvBefore, poolBefore := in.backendStats()
	sh := in.shape
	heap := startHeapSampler()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) || in.calls%len(clusterCycle) != 0 {
		if ps.attempted > 0 {
			// One heap window per sort: each sort starts on a collected
			// heap instead of paying for the previous sort's garbage.
			heap.window()
		}
		bulk := clusterCycle[in.calls%len(clusterCycle)]
		in.calls++
		lo, hi := sh.smallLo, sh.smallHi
		if bulk {
			lo, hi = sh.bulkLo, sh.bulkHi
		}
		n := between(in.r, lo, hi)
		input, want := in.in[:n], in.want[:n]
		genKeys(in.r, input)
		copy(want, input)

		req := tr.req()
		var out []int64
		var err error
		var t0, t1, f0, f1 time.Time
		var root uint64
		sys := func() {
			root = tr.begin("cluster.sort", 0, req)
			for _, t := range in.timers {
				t.next(tr, root, req)
			}
			t0 = time.Now()
			out, err = in.coord.Sort(context.Background(), "default", "", input)
			t1 = time.Now()
			tr.end(root)
		}
		floor := func() {
			f0 = time.Now()
			slices.Sort(want)
			f1 = time.Now()
		}
		if in.calls%2 == 0 {
			floor()
			sys()
		} else {
			sys()
			floor()
		}
		ps.check(err == nil && slices.Equal(out, want) && ledgerOf(out) == ledgerOf(input))

		sysD := t1.Sub(t0)
		lat.add(bulk, sysD)
		keys += int64(n)
		sysNs += sysD.Nanoseconds()
		floorNs += f1.Sub(f0).Nanoseconds()
		if tr == nil {
			continue
		}
		tr.add("floor.stdlib", 0, req, f0, f1)
		var calls []shardCall
		for _, t := range in.timers {
			calls = append(calls, t.next(nil, 0, 0)...)
		}
		var ivs [][2]int64
		maxKeys, sumKeys := 0, 0
		for _, c := range calls {
			ivs = append(ivs, [2]int64{c.start.UnixNano(), c.end.UnixNano()})
			shardMs = append(shardMs, ms(c.end.Sub(c.start)))
			maxKeys = max(maxKeys, c.keys)
			sumKeys += c.keys
		}
		selfNs += sysD.Nanoseconds() - covered(t0.UnixNano(), t1.UnixNano(), ivs)
		shards += float64(len(calls))
		if len(calls) > 0 {
			balance += float64(maxKeys) / (float64(sumKeys) / float64(len(calls)))
		}
	}
	peak := heap.stopMiB()

	ps.e2e["keys_per_s"] = ratio(float64(keys), float64(sysNs)/1e9)
	ps.e2e["stdlib_ratio"] = ratio(float64(sysNs), float64(floorNs))
	ps.e2e["req_per_s"] = ratio(float64(ps.attempted), float64(sysNs)/1e9)
	ps.e2e["peak_heap_mib"] = peak
	lat.report(ps.e2e)
	sorts := float64(max(ps.attempted, 1))
	fmt.Fprintf(in.p.log, "cluster-gather: %d sorts, %.0f keys/sort, coordinator %.2f ms vs slices.Sort %.2f ms per sort\n",
		ps.attempted, float64(keys)/sorts, nsMs(sysNs)/sorts, nsMs(floorNs)/sorts)
	if tr == nil {
		return ps, nil
	}

	L := ps.layers
	L["cluster.sort_ms"] = nsMs(sysNs) / sorts
	L["cluster.shard_ms.p50"] = quantile(shardMs, 0.50)
	L["cluster.shard_ms.p99"] = quantile(shardMs, 0.99)
	L["cluster.shards_per_sort"] = shards / sorts
	L["cluster.shard_balance"] = balance / sorts
	L["cluster.coord_self_ms"] = nsMs(selfNs) / sorts
	st := in.coord.Stats()
	L["cluster.redispatches"] = float64(st.Redispatches - statsBefore.Redispatches)
	L["cluster.backpressure"] = float64(st.BackpressureRetries - statsBefore.BackpressureRetries)
	L["floor.stdlib_ms"] = nsMs(floorNs) / sorts

	stages, err := serverStages(in.handlers()...)
	if err != nil {
		return nil, err
	}
	putStages(L, stages)
	for _, s := range []string{"decode", "sort", "encode"} {
		L["backend.stage_ms."+s] = stages[s].MeanMs
	}
	srvAfter, poolAfter := in.backendStats()
	L["server.rejected"] = float64((srvAfter.Rejected + srvAfter.TooLarge + srvAfter.Draining) - (srvBefore.Rejected + srvBefore.TooLarge + srvBefore.Draining))
	L["server.errors"] = float64(srvAfter.Errors - srvBefore.Errors)
	L["pool.hit_ratio"] = ratio(float64(poolAfter.Hits-poolBefore.Hits), float64(poolAfter.Gets-poolBefore.Gets))
	L["pool.builds"] = float64(poolAfter.Builds - poolBefore.Builds)
	return ps, nil
}

// backendStats sums the backends' server and pool counters.
func (in *clusterInst) backendStats() (server.Stats, poolCounters) {
	var s server.Stats
	var p poolCounters
	for _, b := range in.backends {
		st, ps := b.Stats(), b.PoolStats()
		s.Rejected += st.Rejected
		s.TooLarge += st.TooLarge
		s.Draining += st.Draining
		s.Errors += st.Errors
		p.Gets += ps.Gets
		p.Hits += ps.Hits
		p.Builds += ps.Builds
	}
	return s, p
}

type poolCounters struct{ Gets, Hits, Builds int64 }
