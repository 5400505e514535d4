package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none). xs
// is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.999999999) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer with no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func nsMs(ns int64) float64      { return float64(ns) / 1e6 }

const mib = 1 << 20

// latencies collects per-operation wall times in milliseconds for the
// two operation classes every workload has.
type latencies struct {
	small, bulk []float64
}

func (l *latencies) add(bulk bool, d time.Duration) {
	if bulk {
		l.bulk = append(l.bulk, ms(d))
	} else {
		l.small = append(l.small, ms(d))
	}
}

// complete reports whether both classes have a sample yet; serve-mix's
// clients, which have no fixed schedule, keep going past their deadline
// until they do (or fail), so no latency metric is ever empty.
func (l *latencies) complete() bool { return len(l.small) > 0 && len(l.bulk) > 0 }

func (l *latencies) merge(o latencies) {
	l.small = append(l.small, o.small...)
	l.bulk = append(l.bulk, o.bulk...)
}

// report fills the four latency end-to-end metrics.
func (l *latencies) report(e2e map[string]float64) {
	e2e["small.p50_ms"] = quantile(l.small, 0.50)
	e2e["small.p99_ms"] = quantile(l.small, 0.99)
	e2e["bulk.p50_ms"] = quantile(l.bulk, 0.50)
	e2e["bulk.p99_ms"] = quantile(l.bulk, 0.99)
}

// heapSampler tracks the peak of the live-plus-unswept heap in windows
// (a schedule cycle, or one operation where operations allocate tens of
// MiB). Each window opens with forced collections and measures the
// peak above the level they left, so memory held since set-up (the
// benchmark's own reusable buffers, warm pool arenas) stays out of the
// figure and only what the window's operations add shows. Two
// collections empty every sync.Pool (one only moves its items to the
// victim cache), so each window pays for the scratch buffers it needs:
// with one, whether a window found its buffer again depended on which P
// the caller last ran on, a coin toss that swung a window between 0.07
// and 2.5 MiB. The result is the mean window.
type heapSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	mu      sync.Mutex
	base    uint64
	peak    uint64
	gen     int // window generation, so a sample read before open cannot land after it
	windows []float64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapSampler opens the first window.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	s := []metrics.Sample{{Name: heapMetric}}
	h.open(s)
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
			h.sample(s)
		}
	}()
	return h
}

// sample reads the heap and folds it into the window it was read in.
func (h *heapSampler) sample(s []metrics.Sample) {
	h.mu.Lock()
	gen := h.gen
	h.mu.Unlock()
	v := readHeap(s)
	h.mu.Lock()
	if gen == h.gen && v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// open collects garbage twice, emptying sync.Pools, and starts a window
// at the resulting level.
func (h *heapSampler) open(s []metrics.Sample) {
	runtime.GC()
	runtime.GC()
	v := readHeap(s)
	h.mu.Lock()
	h.base, h.peak = v, v
	h.gen++
	h.mu.Unlock()
}

// closeWindow records the current window's peak growth in MiB.
func (h *heapSampler) closeWindow(s []metrics.Sample) {
	h.sample(s)
	h.mu.Lock()
	h.windows = append(h.windows, float64(h.peak-h.base)/mib)
	h.mu.Unlock()
}

// window closes the current window and opens the next; call it between
// operations, outside any timed interval.
func (h *heapSampler) window() {
	s := []metrics.Sample{{Name: heapMetric}}
	h.closeWindow(s)
	h.open(s)
}

// stopMiB ends sampling and returns the mean window's peak growth.
func (h *heapSampler) stopMiB() float64 {
	h.closeWindow([]metrics.Sample{{Name: heapMetric}})
	close(h.stop)
	h.done.Wait()
	return mean(h.windows)
}
