package obs

import (
	"sync/atomic"
	"time"
)

// Stage is one named segment of a request's lifecycle — bucket
// admission, semaphore wait, queue wait, batch assembly, team
// execution, encode. A span's stages partition its wall duration, so
// summing them recovers (to scheduling slop) the request's total; the
// trace tests pin the two within 5%.
type Stage struct {
	Name  string `json:"name"`
	DurNs int64  `json:"dur_ns"`
}

// Span is one completed request-level unit of work — a served sort, a
// batch flush, a rejected request — as recorded by a SpanLog. Where
// the Observer's event rings cover one sort's interior (per-worker,
// per-incarnation), spans cover the serving layer above it: one record
// per request, cheap enough to keep always-on.
type Span struct {
	// ID is the serving layer's request or batch identifier.
	ID uint64 `json:"id"`
	// Trace is the request's end-to-end trace ID: minted by the
	// server, or accepted from the client's X-Trace-Id header and
	// echoed back. Empty on spans predating the trace plane (batch
	// flushes carry their own).
	Trace string `json:"trace,omitempty"`
	// Kind tags the unit ("sort", "batch", ...).
	Kind string `json:"kind"`
	// Class is the request's traffic class (X-Sort-Class; "default"
	// when absent).
	Class string `json:"class,omitempty"`
	// Start is the wall-clock start time, UnixNano.
	Start int64 `json:"start_unix_nano"`
	// Duration is the span's wall-clock duration.
	Duration time.Duration `json:"duration_ns"`
	// N is the element count sorted (for batches, the merged total; 0
	// on requests rejected before their body was read).
	N int `json:"n"`
	// Batched is how many client requests the span carried (1 for an
	// unbatched sort).
	Batched int `json:"batched,omitempty"`
	// Outcome is "ok", "canceled", "shed" (backpressure: queue-shed
	// 504s and 429/503 rejections) or "error".
	Outcome string `json:"outcome"`
	// Stages is the request's stage-latency attribution, in lifecycle
	// order; their sum approximates Duration (see Stage).
	Stages []Stage `json:"stages,omitempty"`
	// Phases is the team-execution phase aggregate (the engine's phase
	// labels), a breakdown *of* the "sort" stage — not part of the
	// Stages partition.
	Phases []Stage `json:"phases,omitempty"`
}

// StageDur returns the named stage's duration, or 0 when absent.
func (s *Span) StageDur(name string) int64 {
	for _, st := range s.Stages {
		if st.Name == name {
			return st.DurNs
		}
	}
	return 0
}

// SpanLog is a fixed-size concurrent ring of recent Spans. Append is
// wait-free — one atomic fetch-add to claim a sequence number and one
// atomic pointer store to publish — so it never adds a wait point to
// the serving path; Snapshot returns the most recent spans, newest
// first. The log is a diagnosis surface, not an audit trail: under
// wrap, old spans are overwritten silently.
type SpanLog struct {
	slots []atomic.Pointer[stampedSpan]
	next  atomic.Uint64 // total appended; slot = (next-1) % len
}

// stampedSpan pairs a span with the 1-based append number that wrote
// it, so Snapshot can tell a slot overwritten by a lapped writer from
// the span it expected there.
type stampedSpan struct {
	seq  uint64
	span Span
}

// NewSpanLog returns a ring holding the last n spans (n < 1 means 256).
func NewSpanLog(n int) *SpanLog {
	if n < 1 {
		n = 256
	}
	return &SpanLog{slots: make([]atomic.Pointer[stampedSpan], n)}
}

// Append records one span.
func (l *SpanLog) Append(s Span) {
	seq := l.next.Add(1)
	l.slots[(seq-1)%uint64(len(l.slots))].Store(&stampedSpan{seq: seq, span: s})
}

// Len reports how many spans were ever appended.
func (l *SpanLog) Len() uint64 { return l.next.Load() }

// Snapshot returns up to max recent spans, newest first (max < 1 means
// the ring's full depth). Spans whose slot was claimed but not yet
// published, or already lapped by a newer writer, are skipped.
func (l *SpanLog) Snapshot(max int) []Span {
	depth := len(l.slots)
	if max < 1 || max > depth {
		max = depth
	}
	newest := l.next.Load()
	out := make([]Span, 0, max)
	for i := 0; i < depth && len(out) < max; i++ {
		seq := newest - uint64(i)
		if seq == 0 {
			break
		}
		st := l.slots[(seq-1)%uint64(len(l.slots))].Load()
		if st == nil || st.seq != seq {
			continue
		}
		out = append(out, st.span)
	}
	return out
}

// Find returns the newest retained span carrying the given trace ID.
// The scan is bounded by the ring depth; a span already lapped is
// simply gone (ok=false) — /trace callers fall back to the exemplar
// store, which retains the slow tail longer.
func (l *SpanLog) Find(traceID string) (Span, bool) {
	if traceID == "" {
		return Span{}, false
	}
	depth := len(l.slots)
	newest := l.next.Load()
	for i := 0; i < depth; i++ {
		seq := newest - uint64(i)
		if seq == 0 {
			break
		}
		st := l.slots[(seq-1)%uint64(len(l.slots))].Load()
		if st == nil || st.seq != seq {
			continue
		}
		if st.span.Trace == traceID {
			return st.span, true
		}
	}
	return Span{}, false
}
