// Package native runs phase graphs (internal/engine) on real goroutines
// with sync/atomic shared memory — the "operating systems" realization
// the paper's introduction motivates: sorting threads can be reaped at
// any moment (Team.Kill, or an adversary's strike) and the wait-free
// algorithms still complete on the surviving goroutines, and a reaped
// worker can come back through the job's Respawner. Its one driver is
// the resident Team: every native run is a TeamJob.
//
// Unlike internal/pram there is no global clock: Read/Write/CAS map
// directly onto atomic loads, stores and compare-and-swaps, so a run is
// as fast as the hardware allows and scheduling is whatever the Go
// runtime does. Step counts and exact contention are simulator-only;
// native metrics carry operation counts, CAS-failure counts and wall
// time, and — with an internal/obs Observer installed — per-phase op
// and wall-clock latency breakdowns recorded through wait-free
// per-incarnation event rings.
package native

import (
	"runtime"
	"sync/atomic"
	"time"

	"wfsort/internal/model"
	"wfsort/internal/obs"
	"wfsort/internal/xrand"
)

// Word aliases the shared-memory word type.
type Word = model.Word

// runState is the execution state proc methods touch on every
// shared-memory operation: the team's per-job execution state. The
// Team swaps the per-job fields (mem, less, adversary) between jobs
// while all its workers are quiescent, then reuses the same kill flags
// and counters.
type runState struct {
	mem       []Word
	kill      []atomic.Bool
	ops       []paddedCounter
	p         int
	less      func(i, j int) bool
	countOps  bool
	adversary model.Adversary
	stalls    *atomic.Int64
}

// paddedCounter avoids false sharing between per-processor counters.
type paddedCounter struct {
	n        int64
	cas      int64
	casFails int64
	_        [5]int64
}

// proc implements model.Proc over atomic operations. It is backed by
// the runState of the Team running the job.
type proc struct {
	st  *runState
	id  int
	rng *xrand.Rand
	n   int64        // cumulative op ordinal, the adversary's per-processor clock
	ob  *obs.ProcObs // this incarnation's event recorder; nil when unobserved
}

var _ model.Proc = (*proc)(nil)

func (p *proc) ID() int       { return p.id }
func (p *proc) NumProcs() int { return p.st.p }

func (p *proc) pre() {
	if p.st.kill[p.id].Load() {
		p.die()
	}
	p.n++
	if ad := p.st.adversary; ad != nil {
		f := ad.Strike(p.id, p.n)
		switch f.Action {
		case model.FaultKill:
			// Die in place of this operation, exactly as a simulator
			// crash replaces the victim's pending op.
			p.die()
		case model.FaultStall:
			p.st.stalls.Add(1)
			if p.ob != nil {
				p.ob.Stall(p.n, f.StallOps)
			}
			for i := 0; i < f.StallOps; i++ {
				runtime.Gosched()
			}
		case model.FaultBlock:
			// The limit case of a stall: stop advancing but stay live
			// until killed — the fault the obs watchdog exists to
			// catch. Poll the kill flag (never spin-starve a core).
			p.st.stalls.Add(1)
			if p.ob != nil {
				p.ob.Stall(p.n, -1)
			}
			for !p.st.kill[p.id].Load() {
				time.Sleep(200 * time.Microsecond)
			}
			p.die()
		}
	}
	if p.st.countOps {
		atomic.AddInt64(&p.st.ops[p.id].n, 1)
	}
	if p.ob != nil {
		p.ob.Op(p.n)
	}
}

// die records the death (when observed) and unwinds the Program.
func (p *proc) die() {
	if p.ob != nil {
		p.ob.Kill(p.n)
	}
	panic(model.Killed{PID: p.id})
}

func (p *proc) Read(a int) Word {
	p.pre()
	return atomic.LoadInt64(&p.st.mem[a])
}

func (p *proc) Write(a int, v Word) {
	p.pre()
	atomic.StoreInt64(&p.st.mem[a], v)
}

func (p *proc) CAS(a int, old, new Word) bool {
	p.pre()
	ok := atomic.CompareAndSwapInt64(&p.st.mem[a], old, new)
	if p.st.countOps {
		atomic.AddInt64(&p.st.ops[p.id].cas, 1)
		if !ok {
			atomic.AddInt64(&p.st.ops[p.id].casFails, 1)
		}
	}
	if !ok && p.ob != nil {
		p.ob.CASFail(p.n, a)
	}
	return ok
}

func (p *proc) Idle() {
	p.pre()
}

func (p *proc) Less(i, j int) bool {
	if i == j {
		return false
	}
	return p.st.less(i, j)
}

func (p *proc) Rand() *model.Rng { return p.rng }

func (p *proc) Phase(name string) {
	if p.ob != nil {
		p.ob.Phase(name, p.n)
	}
}
