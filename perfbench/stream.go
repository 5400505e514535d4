package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"wfsort"
	"wfsort/internal/wire"
)

var streamSpill = workload{
	name:   "stream-spill",
	why:    "one SortStream call at a time over a generated source of 8-66 default chunks: the only user of the spill file and internal/merge, with chunk sorts overlapping file I/O",
	setUp:  setUpStream,
	floors: map[string]string{"stream.call": "floor.stdlib", "stream.read": "floor.chunk_sort"},
}

// streamShape sizes stream-spill: chunk is StreamConfig.ChunkKeys (0 =
// the default, 1<<16); a call carries between lo and hi whole chunks
// plus a partial one. Bulk calls merge at least 64 runs.
type streamShape struct {
	chunk                            int
	smallLo, smallHi, bulkLo, bulkHi int
}

func streamShapeFor(tiny bool) streamShape {
	if tiny {
		return streamShape{chunk: 1024, smallLo: 2, smallHi: 3, bulkLo: 8, bulkHi: 10}
	}
	return streamShape{chunk: 1 << 16, smallLo: 8, smallHi: 9, bulkLo: 64, bulkHi: 65}
}

// streamCycle is the closed loop's schedule: one bulk call, then three
// small ones. Runs end on a cycle boundary, so every run measures the
// same mix.
var streamCycle = [...]bool{true, false, false, false}

type streamInst struct {
	p     params
	shape streamShape
	cfg   wfsort.StreamConfig
	floor []int64
	r     *rand.Rand
	calls uint64
}

func setUpStream(p params) (instance, error) {
	sh := streamShapeFor(p.tiny)
	in := &streamInst{
		p: p, shape: sh,
		cfg:   wfsort.StreamConfig{SpillDir: p.spillDir},
		floor: make([]int64, (sh.bulkHi+1)*sh.chunk),
		r:     newRand(p.seed, 1),
	}
	if p.tiny {
		in.cfg.ChunkKeys = sh.chunk
	}
	// Warm-up: one spilled stream of two and a half chunks.
	src := &keySource{r: newRand(p.seed, 0), left: 2*sh.chunk + sh.chunk/2}
	sink := &checkSink{}
	if _, err := wfsort.SortStream(context.Background(), sink, src, in.cfg); err != nil {
		return nil, fmt.Errorf("warm-up stream: %w", err)
	}
	if !sink.sorted() || sink.out != src.in {
		return nil, fmt.Errorf("warm-up stream: output fails the oracle")
	}
	return in, nil
}

func (in *streamInst) close() {}

// timedSource wraps the generating source with the benchmark's read
// clock (and, in the self-test, flips one key after the ledger fold).
type timedSource struct {
	src       *keySource
	tr        *tracer
	parent    uint64
	req       uint64
	readNs    int64
	corrupt   bool
	corrupted bool
}

func (s *timedSource) ReadKeys(buf []int64) (int, error) {
	t0 := time.Now()
	n, err := s.src.ReadKeys(buf)
	if s.corrupt && !s.corrupted && n > 0 {
		buf[n/2] ^= 1
		s.corrupted = true
	}
	t1 := time.Now()
	s.readNs += t1.Sub(t0).Nanoseconds()
	s.tr.add("stream.read", s.parent, s.req, t0, t1)
	return n, err
}

// checkSink is the verifying KeyWriter: it checks order and folds the
// ledger as frames arrive, keeping no copy of the output.
type checkSink struct {
	tr          *tracer
	parent, req uint64
	first       time.Time
	sinkNs      int64
	out         ledger
	prev        int64
	unsorted    bool
}

func (s *checkSink) WriteKeys(keys []int64) error {
	t0 := time.Now()
	if s.first.IsZero() {
		s.first = t0
	}
	for i, k := range keys {
		if (i > 0 || s.out.n > 0) && k < s.prev {
			s.unsorted = true
		}
		s.prev = k
	}
	s.out.add(keys)
	t1 := time.Now()
	s.sinkNs += t1.Sub(t0).Nanoseconds()
	s.tr.add("stream.sink", s.parent, s.req, t0, t1)
	return nil
}

func (s *checkSink) sorted() bool { return !s.unsorted }

func (in *streamInst) measure(d time.Duration, tr *tracer) (*pass, error) {
	ps := newPass()
	var (
		lat                          latencies
		keys, sysNs, floorNs         int64
		readNs, sinkNs, runNs, mrgNs int64
		chunks, spill                float64
		chunkSortNs, chunkSorts      int64
	)
	var floorSorter *wfsort.KeyedSorter[int64]
	if tr != nil {
		// The in-memory floor for chunk sorts: the same chunks on a pool
		// configured as SortStream's private one.
		var err error
		if floorSorter, err = wfsort.NewKeyedSorter(wfsort.Int64Key, wfsort.WithPipeline(4)); err != nil {
			return nil, err
		}
		defer floorSorter.Close()
	}
	sh := in.shape
	heap := startHeapSampler()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) || in.calls%uint64(len(streamCycle)) != 0 {
		if ps.attempted > 0 {
			// One heap window per call: each call starts on a collected
			// heap instead of paying for the previous call's garbage.
			heap.window()
		}
		bulk := streamCycle[in.calls%uint64(len(streamCycle))]
		in.calls++
		lo, hi := sh.smallLo, sh.smallHi
		if bulk {
			lo, hi = sh.bulkLo, sh.bulkHi
		}
		n := between(in.r, lo, hi)*sh.chunk + 1 + in.r.IntN(sh.chunk-1)
		stream := in.calls + 1000 // the call's own PCG stream, so the floor can replay it

		req := tr.req()
		src := &timedSource{src: &keySource{r: newRand(in.p.seed, stream), left: n}, tr: tr, req: req, corrupt: in.p.corrupt}
		sink := &checkSink{tr: tr, req: req}
		var st wfsort.StreamStats
		var err error
		var t0, t1, f0, f1 time.Time
		sys := func() {
			root := tr.begin("stream.call", 0, req)
			src.parent, sink.parent = root, root
			t0 = time.Now()
			st, err = wfsort.SortStream(context.Background(), sink, src, in.cfg)
			t1 = time.Now()
			tr.end(root)
		}
		floor := func() {
			keys := in.floor[:n]
			genKeys(newRand(in.p.seed, stream), keys)
			f0 = time.Now()
			slices.Sort(keys)
			f1 = time.Now()
		}
		if in.calls%2 == 0 {
			floor()
			sys()
		} else {
			sys()
			floor()
		}
		ps.check(err == nil && st.Keys == int64(n) && sink.sorted() && sink.out == src.src.in)

		sysD := t1.Sub(t0)
		lat.add(bulk, sysD)
		keys += int64(n)
		sysNs += sysD.Nanoseconds()
		floorNs += f1.Sub(f0).Nanoseconds()
		if tr == nil {
			continue
		}
		tr.add("floor.stdlib", 0, req, f0, f1)
		readNs += src.readNs
		sinkNs += sink.sinkNs
		if !sink.first.IsZero() {
			runNs += sink.first.Sub(t0).Nanoseconds() - src.readNs
			mrgNs += t1.Sub(sink.first).Nanoseconds() - sink.sinkNs
		}
		chunks += float64(st.Chunks)
		last := n - (st.Chunks-1)*sh.chunk
		spill += float64((st.Chunks-1)*wire.BlockLen(sh.chunk)+wire.BlockLen(last)) / mib
		// Floor: the call's first chunks sorted in memory, one at a time.
		r := newRand(in.p.seed, stream)
		buf := in.floor[:sh.chunk]
		for c := 0; c < min(st.Chunks-1, 16); c++ {
			genKeys(r, buf)
			c0 := time.Now()
			if err := floorSorter.Sort(buf); err != nil {
				return nil, fmt.Errorf("chunk floor: %w", err)
			}
			c1 := time.Now()
			chunkSortNs += c1.Sub(c0).Nanoseconds()
			chunkSorts++
			tr.add("floor.chunk_sort", 0, req, c0, c1)
		}
	}
	peak := heap.stopMiB()

	ps.e2e["keys_per_s"] = ratio(float64(keys), float64(sysNs)/1e9)
	ps.e2e["stdlib_ratio"] = ratio(float64(sysNs), float64(floorNs))
	ps.e2e["req_per_s"] = ratio(float64(ps.attempted), float64(sysNs)/1e9)
	ps.e2e["peak_heap_mib"] = peak
	lat.report(ps.e2e)
	calls := float64(max(ps.attempted, 1))
	fmt.Fprintf(in.p.log, "stream-spill: %d calls, %.0f keys/call, SortStream %.2f ms vs slices.Sort in memory %.2f ms per call, peak heap +%.1f MiB\n",
		ps.attempted, float64(keys)/calls, nsMs(sysNs)/calls, nsMs(floorNs)/calls, peak)
	if tr != nil {
		L := ps.layers
		L["stream.read_ms"] = nsMs(readNs) / calls
		L["stream.sink_ms"] = nsMs(sinkNs) / calls
		L["stream.run_phase_ms"] = nsMs(runNs) / calls
		L["stream.merge_phase_ms"] = nsMs(mrgNs) / calls
		L["stream.chunks"] = chunks / calls
		L["stream.spill_mib"] = spill / calls
		L["stream.heap_mib.max"] = peak
		L["floor.chunk_sort_ms"] = nsMs(chunkSortNs) / float64(max(chunkSorts, 1))
		L["floor.stdlib_ms"] = nsMs(floorNs) / calls
	}
	return ps, nil
}
