package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"wfsort/internal/model"
)

// AtomicHist is the wait-free twin of model.Histogram: the same log2
// buckets, every update one atomic add, so the serving path records
// without locks and snapshots reuse model's quantile math.
type AtomicHist struct {
	buckets [64]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one nanosecond sample.
func (h *AtomicHist) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Snapshot copies the record into a model.Histogram for quantile
// estimates. The copy is not atomic across buckets — concurrent
// writers may land between loads — which is fine for a metrics
// surface.
func (h *AtomicHist) Snapshot() *model.Histogram {
	out := &model.Histogram{}
	for b := range h.buckets {
		out.Buckets[b] = h.buckets[b].Load()
	}
	out.Count = h.count.Load()
	out.Sum = h.sum.Load()
	return out
}

// ClassCounters is one traffic class's serving-side record: outcome
// counts, QoS-plane decision counts, and atomic latency + queue-wait
// histograms. Every update is a single atomic add, so recording on
// the serving path stays wait-free like the rest of the plane.
type ClassCounters struct {
	Requests atomic.Int64
	OK       atomic.Int64
	Shed     atomic.Int64 // 429 + 503
	Canceled atomic.Int64 // 504
	Errors   atomic.Int64

	// QoS-plane decisions (zero unless the QoS plane is enabled).
	Admitted     atomic.Int64 // token-bucket admissions
	Aged         atomic.Int64 // dispatches won through aging
	DeadlineDrop atomic.Int64 // queued jobs shed, deadline unmeetable

	// Exemplars retains the class's top-K slowest requests with their
	// full stage breakdowns — the tail exemplars surfaced by /metrics
	// next to the histogram buckets they fell into.
	Exemplars Exemplars

	latency AtomicHist
	qwait   AtomicHist
}

// ObserveLatency records one request latency in nanoseconds.
func (c *ClassCounters) ObserveLatency(ns int64) { c.latency.Observe(ns) }

// ObserveQueueWait records one admission-queue wait in nanoseconds.
func (c *ClassCounters) ObserveQueueWait(ns int64) { c.qwait.Observe(ns) }

// Histogram snapshots the latency record.
func (c *ClassCounters) Histogram() *model.Histogram { return c.latency.Snapshot() }

// QueueWaitHistogram snapshots the queue-wait record.
func (c *ClassCounters) QueueWaitHistogram() *model.Histogram { return c.qwait.Snapshot() }

// ClassStats is one class's JSON-ready snapshot.
type ClassStats struct {
	Requests int64   `json:"requests"`
	OK       int64   `json:"ok"`
	Shed     int64   `json:"shed"`
	Canceled int64   `json:"canceled"`
	Errors   int64   `json:"errors"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MeanMs   float64 `json:"mean_ms"`

	// QoS-plane fields, omitted while idle so pre-QoS scrapes keep
	// their shape.
	Admitted     int64   `json:"admitted,omitempty"`
	Aged         int64   `json:"aged,omitempty"`
	DeadlineDrop int64   `json:"deadline_dropped,omitempty"`
	QWaitP50Ms   float64 `json:"qwait_p50_ms,omitempty"`
	QWaitP99Ms   float64 `json:"qwait_p99_ms,omitempty"`

	// Exemplars is the class's retained slow tail (slowest first),
	// each with its trace ID and stage breakdown.
	Exemplars []Span `json:"exemplars,omitempty"`
}

// ClassSet is a registry of per-class counters keyed by class name.
// The hot path (Get on a known class) is lock-free: one atomic map
// load and a read-only lookup. Inserting a new class copies the map
// under a mutex — rare by construction, since class cardinality is
// capped: once Limit distinct names exist, unknown names all land on
// the "other" class rather than letting a client mint unbounded
// counter sets.
type ClassSet struct {
	limit int
	m     atomic.Pointer[map[string]*ClassCounters]
	mu    sync.Mutex
}

// Overflow is the class name absorbing registrations past the limit.
const Overflow = "other"

// NewClassSet builds a registry capped at limit classes (limit < 1
// means 32). The overflow class counts against the cap.
func NewClassSet(limit int) *ClassSet {
	if limit < 1 {
		limit = 32
	}
	s := &ClassSet{limit: limit}
	empty := map[string]*ClassCounters{}
	s.m.Store(&empty)
	return s
}

// Get returns the counters for name, creating them on first sight
// (or the overflow class's once the cap is hit).
func (s *ClassSet) Get(name string) *ClassCounters {
	if name == "" {
		name = "default"
	}
	m := *s.m.Load()
	if c, ok := m[name]; ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m = *s.m.Load()
	if c, ok := m[name]; ok {
		return c
	}
	if len(m) >= s.limit {
		name = Overflow
		if c, ok := m[name]; ok {
			return c
		}
	}
	next := make(map[string]*ClassCounters, len(m)+1)
	for k, v := range m {
		next[k] = v
	}
	c := &ClassCounters{}
	next[name] = c
	s.m.Store(&next)
	return c
}

// Names returns the registered class names, sorted — the iteration
// order deterministic renderers (the Prometheus encoder) need.
func (s *ClassSet) Names() []string {
	m := *s.m.Load()
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the counters for name without creating them.
func (s *ClassSet) Lookup(name string) (*ClassCounters, bool) {
	c, ok := (*s.m.Load())[name]
	return c, ok
}

// FindExemplar scans every class's exemplar slots for a span carrying
// the given trace ID — the /trace fallback for slow requests whose
// span-log slot was already lapped.
func (s *ClassSet) FindExemplar(traceID string) (Span, bool) {
	if traceID == "" {
		return Span{}, false
	}
	m := *s.m.Load()
	for _, c := range m {
		for _, sp := range c.Exemplars.Snapshot() {
			if sp.Trace == traceID {
				return sp, true
			}
		}
	}
	return Span{}, false
}

// Snapshot renders every class's current stats, JSON-ready.
func (s *ClassSet) Snapshot() map[string]ClassStats {
	m := *s.m.Load()
	out := make(map[string]ClassStats, len(m))
	for name, c := range m {
		h := c.Histogram()
		st := ClassStats{
			Requests:     c.Requests.Load(),
			OK:           c.OK.Load(),
			Shed:         c.Shed.Load(),
			Canceled:     c.Canceled.Load(),
			Errors:       c.Errors.Load(),
			P50Ms:        float64(h.Quantile(0.50)) / 1e6,
			P99Ms:        float64(h.Quantile(0.99)) / 1e6,
			MeanMs:       float64(h.Mean()) / 1e6,
			Admitted:     c.Admitted.Load(),
			Aged:         c.Aged.Load(),
			DeadlineDrop: c.DeadlineDrop.Load(),
		}
		if qh := c.QueueWaitHistogram(); qh.Count > 0 {
			st.QWaitP50Ms = float64(qh.Quantile(0.50)) / 1e6
			st.QWaitP99Ms = float64(qh.Quantile(0.99)) / 1e6
		}
		st.Exemplars = c.Exemplars.Snapshot()
		out[name] = st
	}
	return out
}
