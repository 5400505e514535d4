package wfsort

import (
	"context"

	"wfsort/internal/native"
)

// PhaseDur re-exports one worker phase's team-wide duration from a
// traced sort.
type PhaseDur = native.PhaseDur

// SortTrace is the per-call timing sink a caller may attach to a
// pooled SortContext via WithSortTrace. After SortContext returns, the
// sink holds the sort's interior attribution:
//
//   - QueueWaitNs: time the sort spent in the pool's admission queue
//     (0 on pools without WithQueuePolicy and on sorts of 64 elements
//     or fewer, which have no queue);
//   - RunNs: the team's wall time, team start to last worker done;
//   - Phases: per-phase breakdown of RunNs using the engine graph's
//     phase labels, from each worker's phase-completion stamps.
//
// The sink is written once, by the SortContext call itself, after the
// run completes — no concurrent access unless the caller shares one
// sink across calls, which it should not.
type SortTrace struct {
	QueueWaitNs int64
	RunNs       int64
	Phases      []PhaseDur
}

// sortTraceKey carries a *SortTrace through a context.
type sortTraceKey struct{}

// WithSortTrace returns a context that makes one SortContext call fill
// t with its interior timing (queue wait, team wall, per-phase splits)
// — the seam the serving layer uses to attribute a request's latency
// across stages without threading a new parameter through the public
// Sort API. A nil t is ignored.
func WithSortTrace(ctx context.Context, t *SortTrace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, sortTraceKey{}, t)
}

// sortTraceFrom extracts the sink installed by WithSortTrace, if any.
func sortTraceFrom(ctx context.Context) *SortTrace {
	t, _ := ctx.Value(sortTraceKey{}).(*SortTrace)
	return t
}
