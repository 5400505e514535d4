// Package pool provides reusable sort contexts: size-classed arenas
// plus their immutable sorter layouts, kept on sharded free lists so
// steady-state sorts build no arenas and allocate nothing.
//
// A context owns everything a sort needs except the workers: the
// arena-sized memory image and the Runner that laid it out. Because
// every mutable word of sort state lives in that shared memory,
// clearing the memory and re-seeding reproduces a factory-fresh
// context exactly — reuse is a memset away, never a rebuild. The pool
// hands contexts out by size class (powers of two from
// sizeclass.MinClass to sizeclass.MaxClass), so a request for any
// n ≤ capacity reuses the same context; callers pad the tail with
// virtual elements that compare greater than every real one.
package pool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"wfsort/internal/engine"
	"wfsort/internal/model"
	"wfsort/internal/sizeclass"
)

// Runner is the immutable sorter layout a context was built with. It
// is stateless between sorts: all mutable state lives in the context's
// memory, which Seed initializes from zero.
type Runner interface {
	// Seed writes the initial state (WAT seeds) into zeroed memory.
	Seed(mem []model.Word)
	// PlacesInto reads the final 1-based ranks of elements 1..len(dst)
	// out of memory after a completed sort.
	PlacesInto(mem []model.Word, dst []int)
	// Graph returns the sorter's phase graph, the form native.Team
	// runs (with a completion notification per phase, for timing) and
	// host-side introspection reads.
	Graph() *engine.Graph
}

// Ctx is one reusable sort context.
type Ctx struct {
	// Capacity is the context's element capacity; any n ≤ Capacity can
	// be sorted in it (pad elements n+1..Capacity compare greatest).
	Capacity int
	// Runner is the immutable layout for Capacity elements.
	Runner Runner
	// Mem is the arena image, len = arena.Size(), seeded and ready.
	Mem []model.Word
	// Places is scratch for reading ranks back, len = Capacity.
	Places []int

	class int // index into Pool.classes, -1 for oversize one-offs
}

// Reset restores the context to its just-built state: zero the memory,
// re-seed. After Reset the context is indistinguishable from a fresh
// build, because the sorter layout itself is immutable.
func (c *Ctx) Reset() {
	clear(c.Mem)
	c.Runner.Seed(c.Mem)
}

// Config builds a Pool.
type Config struct {
	// MinCapacity drops size classes smaller than this (a pool whose
	// sorts always involve w workers needs capacity ≥ w). 0 keeps all.
	MinCapacity int
	// PerClassIdle caps how many idle contexts each class retains
	// across all shards; further Puts drop the context. 0 means 1.
	PerClassIdle int
	// Shards spreads each class's free list to cut Put/Get contention.
	// 0 means 1.
	Shards int
	// Build constructs a runner and its arena for one size class.
	// Required.
	Build func(capacity int) (Runner, model.Allocator, error)
}

// Stats are cumulative pool counters.
type Stats struct {
	// Gets counts Get calls; Hits of them were served from a free list.
	Gets, Hits int64
	// Builds counts full context constructions (arena layout + seed) —
	// the expensive path. Steady state holds this flat.
	Builds int64
	// Oversize counts Gets beyond the largest class, served unpooled.
	Oversize int64
	// Puts counts returns; Trims of all drops (idle cap and Trim calls).
	Puts, Trims int64
}

type shard struct {
	mu   sync.Mutex
	free []*Ctx
	_    [40]byte // keep neighbouring shard locks off one cache line
}

type class struct {
	capacity int
	shards   []shard
	idle     atomic.Int64 // contexts currently on this class's free lists
}

// Pool is a size-classed store of reusable sort contexts. All methods
// are safe for concurrent use.
type Pool struct {
	classes      []class
	perClassIdle int
	build        func(capacity int) (Runner, model.Allocator, error)

	cursor atomic.Int64 // round-robin shard pick

	gets, hits, builds, oversize, puts, trims atomic.Int64
}

// New builds a pool over the shared size-class ladder.
func New(cfg Config) (*Pool, error) {
	if cfg.Build == nil {
		return nil, fmt.Errorf("pool: Config.Build is required")
	}
	if cfg.PerClassIdle < 1 {
		cfg.PerClassIdle = 1
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	p := &Pool{perClassIdle: cfg.PerClassIdle, build: cfg.Build}
	for _, c := range sizeclass.Classes() {
		if c < cfg.MinCapacity {
			continue
		}
		p.classes = append(p.classes, class{capacity: c, shards: make([]shard, cfg.Shards)})
	}
	if len(p.classes) == 0 {
		return nil, fmt.Errorf("pool: MinCapacity %d leaves no size classes", cfg.MinCapacity)
	}
	return p, nil
}

// MinCapacity returns the smallest class capacity the pool serves.
func (p *Pool) MinCapacity() int { return p.classes[0].capacity }

// classFor returns the index of the smallest class with capacity ≥ n,
// or -1 when n exceeds the largest class.
func (p *Pool) classFor(n int) int {
	for i := range p.classes {
		if n <= p.classes[i].capacity {
			return i
		}
	}
	return -1
}

// Get returns a seeded, ready-to-sort context with Capacity ≥ n,
// reusing an idle one when the class has any. Contexts for n beyond
// the largest size class are built exactly-sized and never pooled;
// Put drops them.
func (p *Pool) Get(n int) (*Ctx, error) {
	if n < 1 {
		return nil, fmt.Errorf("pool: Get(%d)", n)
	}
	p.gets.Add(1)
	ci := p.classFor(n)
	if ci < 0 {
		p.oversize.Add(1)
		return p.buildCtx(n, -1)
	}
	cl := &p.classes[ci]
	if cl.idle.Load() > 0 {
		// Scan shards starting from the rotating cursor; the counter is
		// advisory, so a miss on every shard just falls through to build.
		start := int(p.cursor.Add(1))
		for k := 0; k < len(cl.shards); k++ {
			sh := &cl.shards[(start+k)%len(cl.shards)]
			sh.mu.Lock()
			if len(sh.free) > 0 {
				c := sh.free[len(sh.free)-1]
				sh.free = sh.free[:len(sh.free)-1]
				sh.mu.Unlock()
				cl.idle.Add(-1)
				p.hits.Add(1)
				return c, nil
			}
			sh.mu.Unlock()
		}
	}
	return p.buildCtx(cl.capacity, ci)
}

func (p *Pool) buildCtx(capacity, ci int) (*Ctx, error) {
	r, a, err := p.build(capacity)
	if err != nil {
		return nil, err
	}
	p.builds.Add(1)
	c := NewCtx(capacity, r, a)
	c.class = ci
	return c, nil
}

// NewCtx builds a seeded, ready-to-sort context of the given capacity
// from a runner laid out for it in arena a. The context belongs to no
// size class, so Put drops it.
func NewCtx(capacity int, r Runner, a model.Allocator) *Ctx {
	c := &Ctx{
		Capacity: capacity,
		Runner:   r,
		Mem:      make([]model.Word, a.Size()),
		Places:   make([]int, capacity),
		class:    -1,
	}
	r.Seed(c.Mem)
	return c
}

// Put resets the context and returns it to its class's free list, or
// drops it when the class already holds PerClassIdle idle contexts
// (or the context is an oversize one-off). Contexts abandoned
// mid-sort are safe to Put: Reset rebuilds the pristine state.
func (p *Pool) Put(c *Ctx) {
	p.puts.Add(1)
	if c.class < 0 {
		p.trims.Add(1)
		return
	}
	cl := &p.classes[c.class]
	if cl.idle.Load() >= int64(p.perClassIdle) {
		p.trims.Add(1)
		return
	}
	c.Reset()
	sh := &cl.shards[int(p.cursor.Add(1))%len(cl.shards)]
	sh.mu.Lock()
	sh.free = append(sh.free, c)
	sh.mu.Unlock()
	cl.idle.Add(1)
}

// Trim drops every idle context, returning memory to the collector.
// The per-size high-water policy is PerClassIdle at Put time; Trim is
// the explicit floor-to-zero for quiet periods.
func (p *Pool) Trim() {
	for i := range p.classes {
		cl := &p.classes[i]
		for s := range cl.shards {
			sh := &cl.shards[s]
			sh.mu.Lock()
			n := len(sh.free)
			sh.free = nil
			sh.mu.Unlock()
			if n > 0 {
				cl.idle.Add(int64(-n))
				p.trims.Add(int64(n))
			}
		}
	}
}

// Idle reports the total idle contexts across all classes.
func (p *Pool) Idle() int {
	var n int64
	for i := range p.classes {
		n += p.classes[i].idle.Load()
	}
	return int(n)
}

// Stats returns a snapshot of the cumulative counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Gets:     p.gets.Load(),
		Hits:     p.hits.Load(),
		Builds:   p.builds.Load(),
		Oversize: p.oversize.Load(),
		Puts:     p.puts.Load(),
		Trims:    p.trims.Load(),
	}
}
