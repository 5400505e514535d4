package qos

import "wfsort/internal/native"

// Observer receives the scheduler's per-decision events. The serving
// layer adapts it onto the obs class counters; replay and tests may
// pass nil (no events) or their own recorder. Calls arrive from the
// admission queue under its lock, one decision at a time, in decision
// order.
type Observer interface {
	// JobDispatched fires when a job is picked to run, with its
	// queue wait.
	JobDispatched(class string, waitNs int64)
	// JobAged fires when the picked job won only through aging — a
	// strictly lower-priority tier was pending and lost.
	JobAged(class string)
	// JobDeadlineDropped fires when a queued job is shed because its
	// deadline can no longer be met.
	JobDeadlineDropped(class string)
}

// Sched is the priority/deadline queue policy for a pool's admission
// queue (wfsort.WithQueuePolicy):
//
//   - Strict priority tiers with aging: a job's effective tier is
//     Priority − waited/aging, unclamped, so every queued job
//     eventually outranks all fresh arrivals — no tier starves
//     (DESIGN §13 has the bound).
//   - Shortest-job-first inside a tier, by EstCost (the sizeclass
//     capacity the sort will run at), submission order breaking the
//     final tie.
//   - Deadline shedding with no false positives: a job is dropped
//     iff deadline − now < floor, so with the default floor of 0
//     only an already-expired deadline sheds, and a boundary job
//     (exactly floor remaining) is dispatched, never dropped.
//
// All decisions are pure integer functions of the queue clock, so
// a replayed schedule is byte-identical — see Replay.
type Sched struct {
	agingNs int64
	floorNs int64
	ob      Observer
}

// NewSched builds the queue policy for a validated config. ob may be
// nil.
func NewSched(cfg *Config, ob Observer) *Sched {
	return &Sched{agingNs: cfg.agingNs(), floorNs: cfg.floorNs(), ob: ob}
}

var _ native.QueuePolicy = (*Sched)(nil)

// Shed implements native.QueuePolicy: drop iff the deadline provably
// cannot be met (remaining < floor). Jobs without deadlines are never
// shed. The queue removes a shed job immediately, so the observer
// sees exactly one JobDeadlineDropped per dropped job.
func (s *Sched) Shed(now int64, j native.JobView) bool {
	if j.DeadlineNs == 0 || satSub(j.DeadlineNs, now) >= s.floorNs {
		return false
	}
	if s.ob != nil {
		s.ob.JobDeadlineDropped(j.Class)
	}
	return true
}

// Pick implements native.QueuePolicy: lowest effective tier wins;
// EstCost then Seq break ties.
func (s *Sched) Pick(now int64, pending []native.JobView) int {
	best, bestTier := 0, s.tier(now, pending[0])
	minRaw := pending[0].Priority
	for i := 1; i < len(pending); i++ {
		if p := pending[i].Priority; p < minRaw {
			minRaw = p
		}
		tier := s.tier(now, pending[i])
		if tier < bestTier || (tier == bestTier && better(pending[i], pending[best])) {
			best, bestTier = i, tier
		}
	}
	if s.ob != nil {
		win := pending[best]
		s.ob.JobDispatched(win.Class, satSub(now, win.QueuedNs))
		if win.Priority > minRaw {
			s.ob.JobAged(win.Class)
		}
	}
	return best
}

// tier is the job's effective priority: raw tier minus one per aging
// interval waited, deliberately unclamped below zero so aged jobs
// keep gaining ground on tier-0 floods.
func (s *Sched) tier(now int64, j native.JobView) int64 {
	waited := satSub(now, j.QueuedNs)
	if waited < 0 {
		waited = 0
	}
	return int64(j.Priority) - waited/s.agingNs
}

// better is the within-tier tie-break: shortest estimated job first,
// then submission order. EstCost 0 means unknown and sorts last among
// equals of its tier rather than jumping the queue.
func better(a, b native.JobView) bool {
	ca, cb := a.EstCost, b.EstCost
	if ca == 0 {
		ca = 1<<63 - 1
	}
	if cb == 0 {
		cb = 1<<63 - 1
	}
	if ca != cb {
		return ca < cb
	}
	return a.Seq < b.Seq
}
