package main

import (
	"cmp"
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"time"

	"wfsort"
)

var keyedBulk = workload{
	name:   "keyed-bulk",
	why:    "library callers sorting 32-byte records by key in a closed loop: time goes to the paper's phases, the pool and the permutation, none to HTTP, codecs or merge",
	setUp:  setUpKeyed,
	floors: map[string]string{"wfsort.sort": "floor.stdlib"},
}

// band is one request-size band; sizes are drawn uniformly from
// [lo, hi]. They are not powers of two, so the pool's class padding is
// paid as in real traffic, but each band stays inside one size class
// (4096, 65536, 262144 keys), so a band's latency is unimodal.
type band struct {
	name   string
	lo, hi int
}

func keyedBands(tiny bool) [3]band {
	if tiny {
		return [3]band{{"s", 300, 500}, {"m", 3000, 4000}, {"l", 20000, 30000}}
	}
	return [3]band{{"s", 3000, 4000}, {"m", 48000, 64000}, {"l", 200000, 260000}}
}

// bandCycle is the closed loop's fixed schedule of bands: per 31 calls,
// 20 s, 10 m and 1 l. Key shapes cycle with period three, so every
// (band, shape) pair recurs every 93 calls; only sizes and key values
// come from the seed. The s band is the "small" latency class and the
// m band the "bulk" one: each gets a few hundred samples a run, which
// the l band's few hundred-millisecond calls cannot. The m band takes
// the largest share of the cycle because its p99, the third slowest of
// a run's m calls, needs the samples. Runs end on a cycle boundary, so
// every run measures the same mix.
var bandCycle = [...]int{0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 2}

type keyedInst struct {
	p      params
	bands  [3]band
	sorter *wfsort.KeyedSorter[rec]
	data   []rec
	want   []rec
	r      *rand.Rand
	calls  int
}

func cmpRec(a, b rec) int { return cmp.Compare(a.key, b.key) }

func setUpKeyed(p params) (instance, error) {
	s, err := wfsort.NewKeyedSorter(func(r rec) uint64 { return wfsort.Int64Key(r.key) },
		wfsort.WithWorkers(runtime.NumCPU()), wfsort.WithPipeline(4))
	if err != nil {
		return nil, err
	}
	bands := keyedBands(p.tiny)
	maxN := bands[2].hi
	in := &keyedInst{
		p: p, bands: bands, sorter: s,
		data: make([]rec, maxN), want: make([]rec, maxN),
		r: newRand(p.seed, 1),
	}
	// Warm-up: one sort per band, so every size class the measurement
	// borrows is built during set-up.
	wr := newRand(p.seed, 0)
	for _, b := range bands {
		d := in.data[:b.hi]
		genRecords(wr, d, shapeUniform)
		if err := s.Sort(d); err != nil {
			s.Close()
			return nil, fmt.Errorf("warm-up sort: %w", err)
		}
	}
	return in, nil
}

func (in *keyedInst) close() { in.sorter.Close() }

// bandAcc accumulates one band's timings.
type bandAcc struct {
	calls                          int
	sysNs, floorNs, queueNs, runNs int64
}

func (in *keyedInst) measure(d time.Duration, tr *tracer) (*pass, error) {
	ps := newPass()
	var (
		lat     latencies
		acc     [3]bandAcc
		keys    int64
		phaseNs = map[string]int64{}
		traced  int
	)
	before := in.sorter.Stats()
	heap := startHeapSampler()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) || in.calls%len(bandCycle) != 0 {
		if in.calls%len(bandCycle) == 0 && ps.attempted > 0 {
			heap.window() // one heap window per schedule cycle
		}
		bi := bandCycle[in.calls%len(bandCycle)]
		shape := in.calls % numShapes
		in.calls++
		b := in.bands[bi]
		n := between(in.r, b.lo, b.hi)
		data, want := in.data[:n], in.want[:n]
		genRecords(in.r, data, shape)
		copy(want, data)

		req := tr.req()
		var sink wfsort.SortTrace
		var sortErr error
		var sysStart, sysEnd, floorStart, floorEnd time.Time
		sys := func() {
			ctx := context.Background()
			if tr != nil {
				ctx = wfsort.WithSortTrace(ctx, &sink)
			}
			sysStart = time.Now()
			sortErr = in.sorter.SortContext(ctx, data)
			sysEnd = time.Now()
		}
		floor := func() {
			floorStart = time.Now()
			slices.SortStableFunc(want, cmpRec)
			floorEnd = time.Now()
		}
		// Interleave the floor with the system, alternating which runs
		// first so neither side inherits the other's warm caches.
		if in.calls%2 == 0 {
			floor()
			sys()
		} else {
			sys()
			floor()
		}
		if in.p.corrupt && sortErr == nil {
			data[n/2].key ^= 1
		}
		ps.check(sortErr == nil && slices.Equal(data, want))

		sysD := sysEnd.Sub(sysStart)
		a := &acc[bi]
		a.calls++
		a.sysNs += sysD.Nanoseconds()
		a.floorNs += floorEnd.Sub(floorStart).Nanoseconds()
		keys += int64(n)
		if bi < 2 {
			lat.add(bi == 1, sysD)
		}
		if tr != nil {
			a.queueNs += sink.QueueWaitNs
			a.runNs += sink.RunNs
			traced++
			root := tr.add("wfsort.sort", 0, req, sysStart, sysEnd)
			runStart := sysEnd.Add(-time.Duration(sink.RunNs))
			run := tr.addDur("crew.run", root, req, sysEnd, time.Duration(sink.RunNs))
			tr.addDur("crew.queue", root, req, runStart, time.Duration(sink.QueueWaitNs))
			at := runStart
			for _, ph := range sink.Phases {
				name := phaseName(ph.Name)
				phaseNs[name] += ph.DurNs
				next := at.Add(time.Duration(ph.DurNs))
				tr.add("crew.phase."+name, run, req, at, next)
				at = next
			}
			tr.add("floor.stdlib", 0, req, floorStart, floorEnd)
		}
	}
	peak := heap.stopMiB()

	var sysNs, floorNs int64
	for _, a := range acc {
		sysNs += a.sysNs
		floorNs += a.floorNs
	}
	ps.e2e["keys_per_s"] = ratio(float64(keys), float64(sysNs)/1e9)
	ps.e2e["stdlib_ratio"] = ratio(float64(sysNs), float64(floorNs))
	ps.e2e["req_per_s"] = ratio(float64(ps.attempted), float64(sysNs)/1e9)
	ps.e2e["peak_heap_mib"] = peak
	lat.report(ps.e2e)

	var notes []string
	for i, a := range acc {
		c := float64(max(a.calls, 1))
		notes = append(notes, fmt.Sprintf("%s: %d calls, wfsort %.3f ms, stdlib %.3f ms, ratio %.2fx",
			in.bands[i].name, a.calls, nsMs(a.sysNs)/c, nsMs(a.floorNs)/c, ratio(float64(a.sysNs), float64(a.floorNs))))
	}
	fmt.Fprintf(in.p.log, "keyed-bulk vs slices.SortStableFunc per call: %s\n", strings.Join(notes, "; "))

	if tr != nil {
		after := in.sorter.Stats()
		for i, a := range acc {
			c := float64(max(a.calls, 1))
			bn := in.bands[i].name
			ps.layers["wfsort.sort_ms."+bn] = nsMs(a.sysNs) / c
			ps.layers["wfsort.self_ms."+bn] = nsMs(a.sysNs-a.queueNs-a.runNs) / c
			ps.layers["crew.run_ms."+bn] = nsMs(a.runNs) / c
			ps.layers["floor.stdlib_ms."+bn] = nsMs(a.floorNs) / c
		}
		var queueNs int64
		for _, a := range acc {
			queueNs += a.queueNs
		}
		t := float64(max(traced, 1))
		ps.layers["crew.queue_ms"] = nsMs(queueNs) / t
		for name, ns := range phaseNs {
			ps.layers["crew.phase_ms."+name] = nsMs(ns) / t
		}
		ps.layers["floor.stdlib_ms"] = nsMs(floorNs) / t
		ps.layers["pool.hit_ratio"] = ratio(float64(after.Hits-before.Hits), float64(after.Gets-before.Gets))
		ps.layers["pool.builds"] = float64(after.Builds - before.Builds)
	}
	return ps, nil
}

// phaseName strips the engine's ordinal prefix: "1:build" -> "build".
func phaseName(label string) string {
	if _, name, ok := strings.Cut(label, ":"); ok {
		return name
	}
	return label
}
