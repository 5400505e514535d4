package native

import (
	"errors"
	"time"
)

// ErrDeadlineShed is returned for a sort the admission queue's policy
// dropped before it reached a team: its deadline provably could not be
// met, so no worker executed a single operation on its behalf. The
// serving layer maps it to a 504 issued from the queue, never from a
// worker.
var ErrDeadlineShed = errors.New("native: job shed from the queue (deadline unmeetable)")

// JobQoS is the quality-of-service envelope a caller may attach to a
// queued sort. The zero value means "no class, best priority tier, no
// deadline" — exactly the pre-QoS behavior.
type JobQoS struct {
	// Class names the traffic class for per-class accounting.
	Class string
	// Priority is the strict-priority tier: 0 is most urgent, larger
	// is later. Ordering between tiers is the queue policy's business.
	Priority int
	// EstCost is a service-cost estimate used for shortest-job-first
	// tie-breaks within a tier (the serving layer passes the sizeclass
	// capacity the sort will actually run at). 0 means unknown.
	EstCost int64
	// Deadline, when non-zero, is the instant after which completing
	// the job is worthless; the queue policy may shed the job once the
	// deadline provably cannot be met.
	Deadline time.Time
}

// JobView is the scheduler-visible snapshot of one queued job. All
// instants are nanoseconds on the queue's own monotonic clock
// (0 = queue creation), so policies are pure functions of integers
// and stay byte-for-byte deterministic under replay.
type JobView struct {
	// Seq is the job's submission ordinal, unique and increasing.
	Seq uint64
	// Class, Priority and EstCost copy the job's JobQoS.
	Class    string
	Priority int
	EstCost  int64
	// DeadlineNs is the job's deadline on the queue clock, 0 when
	// the job has none.
	DeadlineNs int64
	// QueuedNs is the instant the job entered the queue.
	QueuedNs int64
}

// QueuePolicy orders an admission queue's waiting jobs. The queue
// consults it under its lock, one decision at a time, so
// implementations need no internal synchronization for the decision
// itself (counters they export may still be read concurrently).
type QueuePolicy interface {
	// Shed reports whether the queued job should be dropped unserved:
	// it fails with ErrDeadlineShed and no worker ever touches it.
	// Called for every waiting job before each dispatch decision, so a
	// shed job is dropped before it can take the slot.
	Shed(now int64, j JobView) bool
	// Pick returns the index into pending of the job to dispatch next.
	// pending is non-empty and in arrival order. An out-of-range
	// return is treated as 0 (FIFO).
	Pick(now int64, pending []JobView) int
}
