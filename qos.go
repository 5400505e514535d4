package wfsort

import (
	"context"
	"fmt"

	"wfsort/internal/native"
)

// QueuePolicy re-exports the pipeline's pluggable queue order: Shed
// decides which queued jobs are dropped as unmeetable, Pick chooses
// the next job to dispatch. Install one on a pipelined pool with
// WithQueuePolicy; internal/qos provides the production
// priority/deadline scheduler. A nil policy is strict FIFO.
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

// WithQueuePolicy installs a queue policy on the pool's pipelined
// crew, replacing FIFO dispatch of queued sorts. Requires WithPipeline
// — a serial pool has no queue to order — and applies to NewPool/
// NewSorter only.
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
// estimate and deadline the pipeline's queue policy schedules by.
// Sorts of 64 elements or fewer, which never enter the crew, and pools
// without a pipeline ignore it.
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
	if c.explicit&setQueuePolicy == 0 {
		return nil
	}
	if c.queuePolicy == nil {
		return fmt.Errorf("wfsort: WithQueuePolicy requires a non-nil policy")
	}
	if c.explicit&setPipeline == 0 {
		return fmt.Errorf("wfsort: WithQueuePolicy requires WithPipeline (a serial pool has no queue to order)")
	}
	return nil
}
