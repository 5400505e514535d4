package wfsort

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"wfsort/internal/native"
)

// QueuePolicy re-exports the pluggable order of a pool's admission
// queue: Shed decides which waiting sorts are dropped as unmeetable,
// Pick chooses the next sort to run. Install one on a pool with
// WithQueuePolicy; internal/qos provides the production
// priority/deadline scheduler.
type QueuePolicy = native.QueuePolicy

// JobView re-exports the scheduler-visible snapshot of one queued job.
type JobView = native.JobView

// JobQoS re-exports the quality-of-service envelope a request may
// attach to a pooled sort via WithJobQoS. The zero value — no class,
// tier 0, no deadline — is exactly the pre-QoS behavior.
type JobQoS = native.JobQoS

// ErrDeadlineShed re-exports the error a pooled SortContext returns
// when the installed QueuePolicy dropped the queued sort because its
// deadline could not be met: no worker touched it and no partial work
// was recorded. The serving layer maps it to a 504 issued from the
// queue.
var ErrDeadlineShed = native.ErrDeadlineShed

// WithQueuePolicy puts a one-slot admission queue in front of the
// pool's teams: the pool then runs one sort at a time, and qp picks
// which waiting sort runs next and sheds the ones whose deadline cannot
// be met. Sorts of 64 elements or fewer skip the queue. Without it,
// concurrent sorts each run at once on their own team. Applies to
// NewPool/NewSorter only.
func WithQueuePolicy(qp QueuePolicy) Option {
	return func(c *config) {
		c.queuePolicy = qp
		c.explicit |= setQueuePolicy
	}
}

// jobQoSKey carries a JobQoS through a context.
type jobQoSKey struct{}

// WithJobQoS returns a context carrying the QoS envelope for one
// pooled SortContext call: the class label, priority tier, cost
// estimate and deadline the pool's queue policy schedules by. Sorts of
// 64 elements or fewer, which skip the queue, and pools without a
// queue policy ignore it.
func WithJobQoS(ctx context.Context, q JobQoS) context.Context {
	return context.WithValue(ctx, jobQoSKey{}, q)
}

// jobQoSFrom extracts the envelope installed by WithJobQoS, if any.
func jobQoSFrom(ctx context.Context) (JobQoS, bool) {
	q, ok := ctx.Value(jobQoSKey{}).(JobQoS)
	return q, ok
}

// validateQueuePolicy is the shared NewPool/NewSorter check.
func validateQueuePolicy(c config) error {
	if c.explicit&setQueuePolicy != 0 && c.queuePolicy == nil {
		return fmt.Errorf("wfsort: WithQueuePolicy requires a non-nil policy")
	}
	return nil
}

// admitQueue is the one-slot admission queue of a pool with a queue
// policy. One sort holds the slot at a time. On every arrival and every
// release the policy first sheds the waiters whose deadline cannot be
// met, then, when the slot is free, picks the waiter that gets it.
type admitQueue struct {
	policy QueuePolicy
	base   time.Time // origin of the JobView clock

	mu      sync.Mutex
	busy    bool
	seq     uint64
	waiting []*admitWaiter // arrival order
	views   []JobView      // Pick's argument, reused under mu
}

// admitWaiter is one sort waiting for the slot. The queue removes it
// from waiting and sends its verdict on done exactly once: nil grants
// the slot, ErrDeadlineShed sheds the sort.
type admitWaiter struct {
	view JobView
	done chan error
}

func newAdmitQueue(qp QueuePolicy) *admitQueue {
	return &admitQueue{policy: qp, base: time.Now()}
}

// now is the queue clock: nanoseconds since the queue was built.
func (q *admitQueue) now() int64 { return time.Since(q.base).Nanoseconds() }

// acquire waits for the slot on behalf of a sort with envelope jq and
// returns how long it waited. It fails with ErrDeadlineShed when the
// policy sheds the sort and with ctx.Err() when ctx ends first; on
// failure the caller does not hold the slot. On success the caller
// must release it.
func (q *admitQueue) acquire(ctx context.Context, jq JobQoS) (waitNs int64, err error) {
	w := &admitWaiter{done: make(chan error, 1)}
	q.mu.Lock()
	w.view = JobView{
		Seq:      q.seq,
		Class:    jq.Class,
		Priority: jq.Priority,
		EstCost:  jq.EstCost,
		QueuedNs: q.now(),
	}
	if !jq.Deadline.IsZero() {
		w.view.DeadlineNs = jq.Deadline.Sub(q.base).Nanoseconds()
	}
	q.seq++
	q.waiting = append(q.waiting, w)
	q.dispatch()
	q.mu.Unlock()

	select {
	case err = <-w.done:
	case <-ctx.Done():
		q.mu.Lock()
		i := slices.Index(q.waiting, w)
		if i >= 0 {
			q.waiting = slices.Delete(q.waiting, i, i+1)
		}
		q.mu.Unlock()
		if i >= 0 {
			return q.now() - w.view.QueuedNs, ctx.Err()
		}
		err = <-w.done // the verdict landed first
	}
	waitNs = q.now() - w.view.QueuedNs
	if err == nil && ctx.Err() != nil {
		// Granted after the caller gave up: hand the slot on.
		q.release()
		err = ctx.Err()
	}
	return waitNs, err
}

// release frees the slot and dispatches the next waiter.
func (q *admitQueue) release() {
	q.mu.Lock()
	q.busy = false
	q.dispatch()
	q.mu.Unlock()
}

// dispatch sheds every waiter the policy drops, then grants a free
// slot to the waiter it picks. Pick is consulted even for a single
// waiter: it doubles as the policy's dispatch notification, and
// per-class queue-wait accounting rides on it. Called with mu held.
func (q *admitQueue) dispatch() {
	now := q.now()
	kept := q.waiting[:0]
	for _, w := range q.waiting {
		if q.policy.Shed(now, w.view) {
			w.done <- ErrDeadlineShed
		} else {
			kept = append(kept, w)
		}
	}
	clear(q.waiting[len(kept):])
	q.waiting = kept
	if q.busy || len(q.waiting) == 0 {
		return
	}
	q.views = q.views[:0]
	for _, w := range q.waiting {
		q.views = append(q.views, w.view)
	}
	i := q.policy.Pick(now, q.views)
	if i < 0 || i >= len(q.waiting) {
		i = 0
	}
	w := q.waiting[i]
	q.waiting = slices.Delete(q.waiting, i, i+1)
	q.busy = true
	w.done <- nil
}
