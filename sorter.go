package wfsort

import (
	"cmp"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"wfsort/internal/model"
	"wfsort/internal/native"
	"wfsort/internal/pool"
	"wfsort/internal/sizeclass"
)

// PoolStats re-exports the pool's cumulative counters: Gets/Hits,
// Builds (full arena constructions — flat in steady state), Oversize,
// Puts and Trims.
type PoolStats = pool.Stats

// Pool owns reusable sort contexts and resident worker teams, so
// steady-state sorts build no arenas and spawn no goroutines. Contexts
// come in power-of-two size classes (sizeclass.MinClass up to
// sizeclass.MaxClass); a request for n elements borrows the smallest
// class that fits, pads the tail with virtual greatest elements, sorts
// at class capacity, and returns the context reset for the next
// borrower. A tiny request (n <= sizeclass.FreshCutoff) lays out an
// exact-size context instead, cheaper than padding up to the smallest
// class. Every sort borrows a resident serial team for the call.
// Workers live in resident teams whose goroutines survive even the
// fault plane's kills: only the sort program unwinds, so a team
// battered by WithChurn or WithCrashes is back at full strength for
// its next job.
//
// The sort configuration (workers, variant, layout, seed, faults) is
// fixed per pool — contexts are only interchangeable because every
// sort uses the same arena layout. All methods are safe for concurrent
// use; concurrent sorts each borrow their own context and team, and
// run at once unless WithQueuePolicy puts them in a queue.
type Pool struct {
	c    config
	ctxs *pool.Pool // nil on a one-call pool (see oneCall)
	seq  atomic.Uint64
	// queue admits one class-context sort at a time in the order of the
	// pool's QueuePolicy; nil without WithQueuePolicy.
	queue *admitQueue

	mu     sync.Mutex
	teams  []*native.Team
	closed bool
}

// NewPool builds a context pool for the given sort configuration.
// WithObserver, WithSchedule and WithPool are rejected: observers are
// single-run, schedules are simulator-only, and pools do not nest.
func NewPool(opts ...Option) (*Pool, error) {
	c, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if c.explicit&(setObserver|setSchedule|setPool) != 0 {
		return nil, fmt.Errorf("wfsort: WithObserver, WithSchedule and WithPool do not apply to NewPool")
	}
	if err := validateQueuePolicy(c); err != nil {
		return nil, err
	}
	p := &Pool{c: c}
	if c.queuePolicy != nil {
		p.queue = newAdmitQueue(c.queuePolicy)
	}
	p.ctxs, err = pool.New(pool.Config{
		// Every class must host the pool's full worker set (P <= N).
		MinCapacity:  c.workers,
		PerClassIdle: 4,
		Shards:       min(c.workers, 4),
		Build: func(capacity int) (pool.Runner, model.Allocator, error) {
			r, a, err := newRunner(capacity, c, c.layout)
			return r, a, err
		},
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// oneCall is the pool behind one one-shot sort of n elements (Sort,
// SortFunc, SortKeyed). It keeps no contexts and is born closed, so its
// one sort runs on an exact-size context and a fresh serial team, which
// carries WithObserver, and the team is closed on return.
func oneCall(n int, opts []Option) (*Pool, error) {
	c, err := buildConfig(n, opts)
	if err != nil {
		return nil, err
	}
	return &Pool{c: c, closed: true}, nil
}

// sorterPool resolves a reusable sorter's pool: the shared one named by
// WithPool, which no other option may accompany, or a private one that
// opts configure and the sorter owns.
func sorterPool(opts []Option) (p *Pool, owned bool, err error) {
	c, err := applyOptions(opts)
	if err != nil {
		return nil, false, err
	}
	if c.pool == nil {
		p, err = NewPool(opts...)
		return p, err == nil, err
	}
	if c.explicit&^setPool != 0 {
		return nil, false, fmt.Errorf("wfsort: WithPool conflicts with every other option; the pool fixes the configuration")
	}
	return c.pool, false, nil
}

// WithPool makes NewSorter borrow contexts and teams from a shared
// pool instead of owning one. The sorter inherits the pool's entire
// configuration; combining WithPool with any other option is an error
// (the pool's contexts were laid out for its configuration, so a
// different variant or worker count cannot be honored).
func WithPool(p *Pool) Option {
	return func(c *config) { c.pool = p; c.explicit |= setPool }
}

// Stats snapshots the pool's context counters.
func (p *Pool) Stats() PoolStats { return p.ctxs.Stats() }

// Trim drops every idle context and closes every idle team, returning
// memory and goroutines during quiet periods. Sorts in flight keep
// their context and team, and park the team again on return.
func (p *Pool) Trim() {
	p.ctxs.Trim()
	p.mu.Lock()
	teams := p.teams
	p.teams = nil
	p.mu.Unlock()
	for _, t := range teams {
		t.Close()
	}
}

// Close releases idle teams and contexts. Sorts in flight finish
// normally; their teams and contexts are dropped on return.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	teams := p.teams
	p.teams = nil
	p.mu.Unlock()
	for _, t := range teams {
		t.Close()
	}
	p.ctxs.Trim()
}

// getTeam pops an idle resident team or starts one.
func (p *Pool) getTeam() *native.Team {
	p.mu.Lock()
	if n := len(p.teams); n > 0 {
		t := p.teams[n-1]
		p.teams = p.teams[:n-1]
		p.mu.Unlock()
		return t
	}
	p.mu.Unlock()
	return native.NewTeam(p.c.workers, false)
}

// putTeam parks a team for reuse, or closes it when the pool is done.
func (p *Pool) putTeam(t *native.Team) {
	p.mu.Lock()
	if !p.closed {
		p.teams = append(p.teams, t)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	t.Close()
}

// getCtx borrows a context for n elements: an exact-size one, never
// pooled, for a tiny sort or on a one-call pool; the smallest fitting
// size class otherwise.
func (p *Pool) getCtx(n int) (pc *pool.Ctx, exact bool, err error) {
	if p.ctxs != nil && n > sizeclass.FreshCutoff {
		pc, err = p.ctxs.Get(n)
		return pc, false, err
	}
	r, a, err := newRunner(n, p.c, p.c.layout)
	if err != nil {
		return nil, true, err
	}
	return pool.NewCtx(n, r, a), true, nil
}

// putCtx returns a context unless the pool has been closed.
func (p *Pool) putCtx(c *pool.Ctx) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if !closed {
		p.ctxs.Put(c)
	}
}

// Sorter is the comparator form of KeyedSorter: the same pooled
// machinery and in-place permutation, ordered by a less function that
// reads the caller's slice directly. Steady-state sorts spawn nothing,
// copy no payload, and above 64 elements build no arena. Create one
// with NewSorter or NewSorterFunc; a Sorter is safe for concurrent use
// (concurrent sorts borrow separate contexts).
type Sorter[E any] struct {
	p     *Pool
	owned bool
	less  func(a, b E) bool
}

// NewSorter returns a reusable sorter over the natural order.
func NewSorter[E cmp.Ordered](opts ...Option) (*Sorter[E], error) {
	return NewSorterFunc[E](func(a, b E) bool { return a < b }, opts...)
}

// NewSorterFunc returns a reusable sorter over a strict weak ordering;
// less is called concurrently and must be safe for concurrent use on
// immutable data. Without WithPool the sorter owns a private pool
// configured by opts (and Close releases it); with WithPool it borrows
// from the shared pool and no other option may be given.
func NewSorterFunc[E any](less func(a, b E) bool, opts ...Option) (*Sorter[E], error) {
	if less == nil {
		return nil, fmt.Errorf("wfsort: NewSorterFunc requires a less function")
	}
	p, owned, err := sorterPool(opts)
	if err != nil {
		return nil, err
	}
	return &Sorter[E]{p: p, owned: owned, less: less}, nil
}

// Close releases the sorter's pool when it owns one; a sorter sharing
// a pool via WithPool leaves it untouched.
func (s *Sorter[E]) Close() {
	if s.owned {
		s.p.Close()
	}
}

// Stats snapshots the backing pool's context counters.
func (s *Sorter[E]) Stats() PoolStats { return s.p.Stats() }

// Sort sorts data in place, stably, reusing the pooled machinery.
func (s *Sorter[E]) Sort(data []E) error {
	return s.SortContext(context.Background(), data)
}

// SortContext is Sort with cancellation: when ctx is canceled
// mid-sort, every worker is killed — always safe, wait-freedom is
// exactly the license to kill mid-flight — the borrowed context is
// reset for the next borrower, data is left unchanged (the sort only
// reads it until the final in-place permutation), and ctx.Err() is
// returned.
func (s *Sorter[E]) SortContext(ctx context.Context, data []E) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(data) < 2 {
		return nil
	}
	return sortOn(ctx, s.p, data, nil, s.less)
}

// sortOn is the one sort body behind every library entry point: borrow
// a context from p, rank data's elements — by keys when given, else by
// less on data itself — and permute data in place by the ranks. data is
// written only once every element is ranked, so a canceled or failed
// sort leaves it unchanged.
func sortOn[T any](ctx context.Context, p *Pool, data []T, keys []uint64, less func(a, b T) bool) error {
	n := len(data)
	pc, exact, err := p.getCtx(n)
	if err != nil {
		return err
	}
	if !exact {
		defer p.putCtx(pc)
	}
	var idxLess func(i, j int) bool
	if keys != nil {
		idxLess = keyedLess(keys, pc.Capacity)
	} else {
		idxLess = funcLess(data, less, pc.Capacity)
	}
	if err := p.runPooled(ctx, pc, n, exact, idxLess); err != nil {
		return err
	}
	return permuteInPlace(data, pc.Places[:n])
}

// funcLess orders arena indices 1..capacity by less over data, ties by
// index. Indices past len(data) are virtual pads that compare greater
// than every element (ties by index), so a class-capacity sort ranks
// the real elements exactly 1..n. When data fills its context there are
// no pads, and the pad-check branch is too expensive to pay on every
// comparison.
func funcLess[E any](data []E, less func(a, b E) bool, capacity int) func(i, j int) bool {
	n := len(data)
	if n == capacity {
		return func(i, j int) bool {
			a, b := data[i-1], data[j-1]
			if less(a, b) {
				return true
			}
			if less(b, a) {
				return false
			}
			return i < j
		}
	}
	return func(i, j int) bool {
		pi, pj := i > n, j > n
		switch {
		case pi && pj:
			return i < j
		case pi:
			return false
		case pj:
			return true
		}
		a, b := data[i-1], data[j-1]
		if less(a, b) {
			return true
		}
		if less(b, a) {
			return false
		}
		return i < j
	}
}

// runPooled executes one sort job on a resident team borrowed for the
// call, with the QoS envelope and trace sink drawn from ctx, an abort
// on ctx cancellation, and rank validation. On a pool with a queue
// policy, a sort on a class context first waits for the admission
// queue's one slot; exact contexts skip the queue. On success
// pc.Places[:n] holds each element's 1-based rank.
func (p *Pool) runPooled(ctx context.Context, pc *pool.Ctx, n int, exact bool, idxLess func(i, j int) bool) error {
	seq := p.seq.Add(1)
	c := p.c
	sink := sortTraceFrom(ctx)
	if p.queue != nil && !exact {
		// The request's QoS envelope rides the context; the queue policy
		// schedules by it. EstCost defaults to the borrowed class
		// capacity — the size the sort actually runs at.
		q, _ := jobQoSFrom(ctx)
		if q.EstCost == 0 {
			q.EstCost = int64(pc.Capacity)
		}
		waitNs, err := p.queue.acquire(ctx, q)
		if sink != nil {
			sink.QueueWaitNs = waitNs
		}
		if err != nil {
			return err
		}
		defer p.queue.release()
	}
	team := p.getTeam()
	defer p.putTeam(team)
	run := team.Start(native.TeamJob{
		Graph:     pc.Runner.Graph(),
		Mem:       pc.Mem,
		Less:      idxLess,
		Seed:      c.seed + seq,
		Adversary: c.adversary(seq),
		Observer:  c.observer,
		Traced:    sink != nil,
	})
	if ctx.Done() != nil {
		// An Abort after Wait finds the team's job finished and does
		// nothing.
		defer context.AfterFunc(ctx, run.Abort)()
	}
	_, runErr := run.Wait()
	if sink != nil {
		// Filled even on error paths: an aborted sort still reports its
		// run.
		t := run.Timing()
		sink.RunNs = t.RunNs
		sink.Phases = t.Phases
	}
	if runErr != nil {
		return runErr
	}
	if run.Aborted() {
		return ctx.Err()
	}

	places := pc.Places[:n]
	pc.Runner.PlacesInto(pc.Mem, places)
	for i, r := range places {
		if r < 1 || r > n {
			// Unreachable under the built-in fault planes (worker 0 is
			// never a target), but a custom future adversary that kills
			// everyone must surface as an error, not silent garbage.
			return fmt.Errorf("wfsort: sort incomplete (element %d unranked)", i+1)
		}
	}
	return nil
}
