package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"wfsort/internal/model"
)

// Config sizes the observability plane. The zero value picks the
// defaults below; a zero Watchdog disables the progress watchdog.
type Config struct {
	// RingCap is the event capacity of each incarnation's ring
	// (default 4096). A full ring overwrites its oldest events and
	// counts the drops.
	RingCap int
	// SnapshotEvery is the op-ordinal snapshot period (default 1024):
	// every that many operations the incarnation records an EvSnapshot
	// and publishes its ordinal to the watchdog.
	SnapshotEvery int64
	// Watchdog is the progress-poll interval; 0 disables the watchdog.
	Watchdog time.Duration
	// StallIntervals is how many consecutive polls a live processor's
	// ordinal may sit still before the watchdog flags a violation
	// (default 3).
	StallIntervals int
}

func (c Config) withDefaults() Config {
	if c.RingCap <= 0 {
		c.RingCap = 4096
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 1024
	}
	if c.StallIntervals <= 0 {
		c.StallIntervals = 3
	}
	return c
}

// Violation is one watchdog finding: a live processor whose op ordinal
// did not advance for Stuck time. On a wait-free algorithm under a
// fault-free scheduler this cannot happen while work remains, so a
// violation means either an injected fault (a blocked/stalled
// processor, which is the watchdog working as intended) or a genuine
// progress bug.
type Violation struct {
	PID   int           `json:"pid"`
	Op    int64         `json:"op"`    // the ordinal it is stuck at
	Stuck time.Duration `json:"stuck"` // how long it sat still when flagged
}

// pidCell is the per-processor state shared between incarnations, the
// watchdog and the live endpoint. Written with atomics because readers
// (watchdog, /metrics) run concurrently with the owning goroutine.
type pidCell struct {
	op   atomic.Int64 // latest published op ordinal
	live atomic.Int32 // running incarnations (0 or 1)
	_    [6]int64     // keep cells off each other's cache lines
}

// Observer is the observability plane for one native run. Create with
// New and pass as native.TeamJob.Observer; it records at most one job.
// All exported read methods are safe during the run; the trace/metrics
// exports want the run finished (the job's Wait returning is the
// synchronization point).
type Observer struct {
	cfg   Config
	start time.Time

	mu         sync.Mutex
	procs      []*ProcObs // every incarnation, in spawn order
	cells      []pidCell
	violations []Violation
	progress   func() (sized, placed int)
	stop       chan struct{}
	stopped    sync.WaitGroup
	started    bool
	finished   atomic.Bool
}

// New builds an observer.
func New(cfg Config) *Observer {
	return &Observer{cfg: cfg.withDefaults(), start: time.Now()}
}

// now is the observer's monotonic clock: nanoseconds since New.
func (o *Observer) now() int64 { return int64(time.Since(o.start)) }

// SetProgress installs a live progress probe — typically a closure over
// core.Kernel.LiveProgress and the runtime's memory — surfaced by the
// /metrics endpoint. The probe is
// called from the serving goroutine concurrently with the run, so it
// must only use atomic reads.
func (o *Observer) SetProgress(f func() (sized, placed int)) {
	o.mu.Lock()
	o.progress = f
	o.mu.Unlock()
}

// RunStart is called by the native runtime as Run begins. It sizes the
// per-processor cells and starts the watchdog, if configured.
func (o *Observer) RunStart(p int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.started {
		panic("obs: Observer reused across runs; create one per run")
	}
	o.started = true
	o.cells = make([]pidCell, p)
	if o.cfg.Watchdog > 0 {
		o.stop = make(chan struct{})
		o.stopped.Add(1)
		go o.watch(o.stop)
	}
}

// RunEnd is called by the native runtime after every goroutine has
// returned; it stops the watchdog.
func (o *Observer) RunEnd() {
	o.finished.Store(true)
	o.mu.Lock()
	stop := o.stop
	o.stop = nil
	o.mu.Unlock()
	if stop != nil {
		close(stop)
		o.stopped.Wait()
	}
}

// watch polls every live processor's published op ordinal and records a
// Violation when one sits still for StallIntervals consecutive polls,
// until stop closes. stop is handed over by RunStart: RunEnd may clear
// o.stop before this goroutine first runs.
func (o *Observer) watch(stop <-chan struct{}) {
	defer o.stopped.Done()
	ticker := time.NewTicker(o.cfg.Watchdog)
	defer ticker.Stop()
	last := make([]int64, len(o.cells))
	still := make([]int, len(o.cells))
	flagged := make([]bool, len(o.cells))
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		for pid := range o.cells {
			c := &o.cells[pid]
			if c.live.Load() == 0 {
				still[pid] = 0
				continue
			}
			cur := c.op.Load()
			if cur != last[pid] {
				last[pid] = cur
				still[pid] = 0
				flagged[pid] = false
				continue
			}
			still[pid]++
			if still[pid] >= o.cfg.StallIntervals && !flagged[pid] {
				flagged[pid] = true
				v := Violation{PID: pid, Op: cur,
					Stuck: time.Duration(still[pid]) * o.cfg.Watchdog}
				o.mu.Lock()
				o.violations = append(o.violations, v)
				o.mu.Unlock()
			}
		}
	}
}

// Violations returns the watchdog findings so far (safe during the
// run).
func (o *Observer) Violations() []Violation {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Violation(nil), o.violations...)
}

// phaseSpan is one incarnation's stay in one phase.
type phaseSpan struct {
	name           string
	startTS, endTS int64
	startOp, endOp int64
}

// ProcObs records one processor incarnation. All methods except the
// observer-side readers are called only from the owning goroutine —
// that single-writer discipline is what keeps the hot path wait-free.
type ProcObs struct {
	ob    *Observer
	pid   int
	inc   int // incarnation ordinal for this pid (0 = initial)
	cell  *pidCell
	ring  *ring
	every int64
	next  int64 // next snapshot ordinal

	curPhase string
	phTS     int64
	phOp     int64
	spans    []phaseSpan
	killed   bool
	endTS    int64
	endOp    int64
	ended    bool
}

// StartIncarnation opens recording for pid's next incarnation, which
// resumes at op ordinal startOp. Called by the native runtime under its
// own lock (spawns of a pid are serialized).
func (o *Observer) StartIncarnation(pid int, startOp int64) *ProcObs {
	o.mu.Lock()
	inc := 0
	for _, p := range o.procs {
		if p.pid == pid {
			inc++
		}
	}
	po := &ProcObs{
		ob:    o,
		pid:   pid,
		inc:   inc,
		cell:  &o.cells[pid],
		ring:  newRing(o.cfg.RingCap),
		every: o.cfg.SnapshotEvery,
		next:  startOp + o.cfg.SnapshotEvery,
	}
	o.procs = append(o.procs, po)
	o.mu.Unlock()
	po.cell.op.Store(startOp)
	po.cell.live.Add(1)
	po.ring.append(Event{TS: o.now(), Op: startOp, Kind: EvSpawn})
	return po
}

// Op is the per-operation hook: bounded work, and on all but every
// SnapshotEvery-th call just one compare and return.
func (po *ProcObs) Op(op int64) {
	if op < po.next {
		return
	}
	po.next = op + po.every
	po.cell.op.Store(op)
	po.ring.append(Event{TS: po.ob.now(), Op: op, Kind: EvSnapshot})
}

// Phase records a phase transition at op ordinal op.
func (po *ProcObs) Phase(name string, op int64) {
	ts := po.ob.now()
	po.closePhase(ts, op)
	po.curPhase, po.phTS, po.phOp = name, ts, op
	po.cell.op.Store(op)
	po.ring.append(Event{TS: ts, Op: op, Kind: EvPhase, Phase: name})
}

func (po *ProcObs) closePhase(ts, op int64) {
	if po.curPhase == "" {
		return
	}
	po.spans = append(po.spans, phaseSpan{
		name: po.curPhase, startTS: po.phTS, endTS: ts, startOp: po.phOp, endOp: op,
	})
	po.curPhase = ""
}

// CASFail records a failed compare-and-swap on address addr — the
// native runtime's observable trace of memory contention.
func (po *ProcObs) CASFail(op int64, addr int) {
	po.ring.append(Event{TS: po.ob.now(), Op: op, Arg: int64(addr), Kind: EvCASFail})
}

// Stall records an adversary-injected stall of the given yields
// (-1 for an indefinite block).
func (po *ProcObs) Stall(op int64, yields int) {
	po.ring.append(Event{TS: po.ob.now(), Op: op, Arg: int64(yields), Kind: EvStall})
}

// Kill records the incarnation's death landing.
func (po *ProcObs) Kill(op int64) {
	po.killed = true
	po.ring.append(Event{TS: po.ob.now(), Op: op, Kind: EvKill})
}

// End closes the incarnation (program returned or kill unwound) at op
// ordinal op. Called from the goroutine's unwind path, before any
// respawn of the same pid starts.
func (po *ProcObs) End(op int64) {
	ts := po.ob.now()
	po.closePhase(ts, op)
	po.endTS, po.endOp, po.ended = ts, op, true
	po.ring.append(Event{TS: ts, Op: op, Kind: EvEnd})
	po.cell.op.Store(op)
	po.cell.live.Add(-1)
}

// Events returns the incarnation's retained ring events oldest-first.
// Call after the run (or after this incarnation ended).
func (po *ProcObs) Events() []Event { return po.ring.events() }

// Dropped returns how many ring events were overwritten.
func (po *ProcObs) Dropped() uint64 { return po.ring.dropped() }

// PID and Incarnation identify the track.
func (po *ProcObs) PID() int         { return po.pid }
func (po *ProcObs) Incarnation() int { return po.inc }

// incarnations snapshots the recorded procs.
func (o *Observer) incarnations() []*ProcObs {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]*ProcObs(nil), o.procs...)
}

// Incarnations returns every recorded incarnation in spawn order. The
// per-incarnation data (events, spans) is safe to read once the run has
// finished.
func (o *Observer) Incarnations() []*ProcObs { return o.incarnations() }

// MergeInto folds the observer's per-phase measurements into a run's
// metrics: per-phase Ops from op-ordinal deltas and per-phase Latency
// histograms, one observation per (incarnation, phase) span. The native
// runtime calls it at the end of Run.
func (o *Observer) MergeInto(m *model.Metrics) {
	for _, po := range o.incarnations() {
		for _, sp := range po.spans {
			pm := m.RecordPhase(sp.name)
			pm.Ops += sp.endOp - sp.startOp
			if pm.Latency == nil {
				pm.Latency = &model.Histogram{}
			}
			pm.Latency.Observe(sp.endTS - sp.startTS)
		}
	}
}

// Snapshot is the live state served by /metrics and expvar.
type Snapshot struct {
	P          int         `json:"p"`
	Ops        []int64     `json:"ops_per_proc"`
	Live       []bool      `json:"live"`
	Events     uint64      `json:"events"`
	Dropped    uint64      `json:"dropped"`
	Violations []Violation `json:"violations,omitempty"`
	Sized      int         `json:"sized"`
	Placed     int         `json:"placed"`
	Finished   bool        `json:"finished"`
}

// Snapshot assembles the live state: per-processor published op
// ordinals and liveness, ring totals, watchdog violations and, when a
// progress probe is installed, the sorter's sized/placed counters. Safe
// to call at any time from any goroutine.
func (o *Observer) Snapshot() Snapshot {
	o.mu.Lock()
	procs := append([]*ProcObs(nil), o.procs...)
	progress := o.progress
	violations := append([]Violation(nil), o.violations...)
	p := len(o.cells)
	o.mu.Unlock()

	s := Snapshot{
		P: p, Ops: make([]int64, p), Live: make([]bool, p),
		Violations: violations, Sized: -1, Placed: -1,
		Finished: o.finished.Load(),
	}
	for pid := 0; pid < p; pid++ {
		s.Ops[pid] = o.cells[pid].op.Load()
		s.Live[pid] = o.cells[pid].live.Load() > 0
	}
	for _, po := range procs {
		s.Events += po.ring.total()
		s.Dropped += po.ring.dropped()
	}
	if progress != nil {
		s.Sized, s.Placed = progress()
	}
	return s
}
