package native

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wfsort/internal/engine"
	"wfsort/internal/model"
	"wfsort/internal/obs"
	"wfsort/internal/xrand"
)

// Team is a resident crew of P worker goroutines that executes
// successive phase graphs without respawning its workers; it is the
// package's one driver, so a one-off run is a one-job team. Each job
// brings its own memory, ordering and (optionally) adversary/observer;
// between jobs the workers are parked on their job channels, so
// steady-state sorts pay no goroutine spawns and reuse the team's kill
// flags and counters.
//
// A Team runs one job at a time; Start panics if a job is already in
// flight (the pooling layer above serializes access to each team).
// Within a job a killed worker (Kill, or an adversary's strike)
// unwinds the graph and may be revived by a Respawner adversary with
// its op ordinal carried across incarnations; because the goroutine
// itself survives the unwind, it is back at full strength for the next
// job regardless of how the previous one treated it.
type Team struct {
	p        int
	countOps bool
	st       runState
	stalls   atomic.Int64
	jobs     []chan *teamJob
	workers  sync.WaitGroup

	mu     sync.Mutex
	cur    *teamJob
	closed bool
}

// TeamJob describes one phase-graph execution on a team.
type TeamJob struct {
	// Graph is the phase graph every worker runs (core and lowcont
	// sorters expose theirs via Graph()).
	Graph *engine.Graph
	// Mem is the job's shared memory (the pooled context's arena).
	Mem []Word
	// Less is the input order consulted by Proc.Less; nil compares
	// element indices.
	Less func(i, j int) bool
	// Seed determines per-worker RNG streams for this job.
	Seed uint64
	// Adversary, when non-nil, is the job's fault-injection plane: it
	// is consulted before every shared-memory operation with the
	// worker's cumulative op ordinal and may kill or stall it at exact
	// points in its execution (see model.Adversary and Plan). If it
	// also implements Respawner, a killed worker may re-enter the graph
	// as a fresh incarnation once its death has landed.
	Adversary model.Adversary
	// Observer, when non-nil, is the observability plane: each
	// incarnation records phase transitions, CAS failures, faults and
	// periodic op-ordinal snapshots into its own wait-free event ring
	// (see internal/obs), and per-phase latency histograms are merged
	// into the job's Metrics. When nil — the default — the hot path
	// pays a single pointer nil-check per operation (gated by the
	// observer cells of cmd/benchgate). An Observer records at most one
	// job.
	Observer *obs.Observer
	// Traced opts the job into per-phase timing (TeamRun.Timing): each
	// worker stamps its own slot as it completes a phase, so recording
	// adds no wait point. Untraced jobs stamp nothing.
	Traced bool
}

// teamJob is a TeamJob in flight: the job's RNG root, completion
// group, abort latch, fault counters and first-panic record.
type teamJob struct {
	TeamJob
	root     *xrand.Rand
	wg       sync.WaitGroup
	aborted  atomic.Bool
	killed   atomic.Int64
	respawns atomic.Int64

	panicMu  sync.Mutex
	panicked error

	// phaseEnd, on traced jobs, holds in slot pid*phases+k the instant,
	// in nanoseconds since epoch, worker pid completed worker phase k;
	// only worker pid writes its slots. A respawned incarnation re-notifies from phase
	// 0 and overwrites them with later instants, which is the
	// last-completion meaning Timing wants. nil when untraced.
	phaseEnd []atomic.Int64
}

// epoch is the origin of the phase stamps. A process-wide base keeps a
// start instant out of teamJob: with one stored there, 4K-key keyed
// sorts on a 2-vCPU host measured 5-8% slower at equal operation
// counts, a memory-layout effect rather than extra work.
var epoch = time.Now()

// TeamRun is a job in flight, returned by Start.
type TeamRun struct {
	t  *Team
	jb *teamJob

	start time.Time
	// Elapsed is the job's wall-clock duration, valid after Wait.
	Elapsed time.Duration
}

// NewTeam starts a resident team of p worker goroutines. countOps
// enables per-worker operation counters on every job (small cost).
// Close releases the workers.
func NewTeam(p int, countOps bool) *Team {
	if p < 1 {
		panic("native: NewTeam needs p >= 1")
	}
	t := &Team{
		p:        p,
		countOps: countOps,
		jobs:     make([]chan *teamJob, p),
	}
	t.st = runState{
		kill:     make([]atomic.Bool, p),
		ops:      make([]paddedCounter, p),
		p:        p,
		countOps: countOps,
		stalls:   &t.stalls,
	}
	for pid := 0; pid < p; pid++ {
		ch := make(chan *teamJob, 1)
		t.jobs[pid] = ch
		t.workers.Add(1)
		go t.worker(pid, ch)
	}
	return t
}

// P returns the team's worker count.
func (t *Team) P() int { return t.p }

// Start launches a job on the team's workers and returns its handle.
// The caller must serialize jobs: Start panics if one is already in
// flight or the team is closed.
func (t *Team) Start(job TeamJob) *TeamRun {
	if job.Graph == nil {
		panic("native: TeamJob.Graph must be set")
	}
	if job.Less == nil {
		job.Less = func(i, j int) bool { return i < j }
	}
	jb := &teamJob{TeamJob: job}
	jb.root = xrand.New(job.Seed)
	if job.Traced {
		jb.phaseEnd = make([]atomic.Int64, t.p*job.Graph.NumWorkerPhases())
	}
	jb.wg.Add(t.p)

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		panic("native: Team.Start after Close")
	}
	if t.cur != nil {
		t.mu.Unlock()
		panic("native: Team.Start while a job is in flight")
	}
	// Workers are all parked (no job in flight), so the per-job state
	// can be swapped with plain writes; the job-channel sends below
	// publish it.
	for pid := 0; pid < t.p; pid++ {
		t.st.kill[pid].Store(false)
		t.st.ops[pid] = paddedCounter{}
	}
	t.stalls.Store(0)
	t.st.mem = job.Mem
	t.st.less = job.Less
	t.st.adversary = job.Adversary
	t.cur = jb
	t.mu.Unlock()

	if ob := job.Observer; ob != nil {
		ob.RunStart(t.p)
	}
	run := &TeamRun{t: t, jb: jb, start: time.Now()}
	for pid := 0; pid < t.p; pid++ {
		t.jobs[pid] <- jb
	}
	return run
}

// Run is Start followed by Wait.
func (t *Team) Run(job TeamJob) (*model.Metrics, error) {
	return t.Start(job).Wait()
}

// Wait blocks until every worker has finished (or been killed without
// revival) and returns the job's metrics: kill/respawn/stall counts,
// op counts when the team counts ops, and the observer's per-phase
// breakdown when one was installed.
func (r *TeamRun) Wait() (*model.Metrics, error) {
	r.jb.wg.Wait()
	r.Elapsed = time.Since(r.start)
	if ob := r.jb.Observer; ob != nil {
		ob.RunEnd()
	}

	t := r.t
	t.mu.Lock()
	if t.cur == r.jb {
		t.cur = nil
	}
	t.mu.Unlock()

	met := &model.Metrics{
		P:              t.p,
		Killed:         int(r.jb.killed.Load()),
		Respawns:       int(r.jb.respawns.Load()),
		InjectedStalls: t.stalls.Load(),
	}
	if t.countOps {
		for i := range t.st.ops {
			met.Ops += atomic.LoadInt64(&t.st.ops[i].n)
			met.CASes += atomic.LoadInt64(&t.st.ops[i].cas)
			met.CASFailures += atomic.LoadInt64(&t.st.ops[i].casFails)
		}
	}
	if ob := r.jb.Observer; ob != nil {
		ob.MergeInto(met)
	}
	r.jb.panicMu.Lock()
	defer r.jb.panicMu.Unlock()
	return met, r.jb.panicked
}

// Abort kills every worker of the job and suppresses revival, so Wait
// returns promptly with the sort abandoned. Killing mid-sort is always
// safe — tolerating it is the algorithm's defining property — but the
// job's memory is left mid-flight garbage; the pooling layer resets
// contexts before reuse. Abort after Wait is a no-op.
func (r *TeamRun) Abort() {
	r.jb.aborted.Store(true)
	t := r.t
	t.mu.Lock()
	if t.cur == r.jb {
		for pid := 0; pid < t.p; pid++ {
			t.st.kill[pid].Store(true)
		}
	}
	t.mu.Unlock()
}

// Aborted reports whether Abort was called on this run.
func (r *TeamRun) Aborted() bool { return r.jb.aborted.Load() }

// OpsPerProc returns the shared-memory operations each worker executed
// on this job, summed across incarnations: the per-processor quantity
// the chaos certifier checks against its op ceiling. Valid after Wait
// and before the team's next Start, on a team that counts ops.
func (r *TeamRun) OpsPerProc() []int64 {
	out := make([]int64, r.t.p)
	for i := range out {
		out[i] = atomic.LoadInt64(&r.t.st.ops[i].n)
	}
	return out
}

// PhaseDur is one worker phase's team-wide duration in a JobTiming.
type PhaseDur struct {
	Name  string
	DurNs int64
}

// JobTiming is a traced job's run attribution, valid after Wait.
type JobTiming struct {
	// RunNs is the job's wall time, Start to the last worker done.
	RunNs int64
	// Phases attributes RunNs across the graph's worker phases: each
	// entry is the gap between successive team-wide phase completions
	// (the latest worker's stamp), so the entries sum to at most RunNs.
	Phases []PhaseDur
}

// Timing returns the job's per-phase attribution. Valid after Wait, on
// jobs started with Traced set; untraced jobs return the zero value.
func (r *TeamRun) Timing() JobTiming {
	jb := r.jb
	if jb.phaseEnd == nil {
		return JobTiming{}
	}
	t := JobTiming{RunNs: r.Elapsed.Nanoseconds()}
	names := jb.Graph.WorkerPhaseNames()
	prev := r.start.Sub(epoch).Nanoseconds()
	for k, name := range names {
		// A phase nobody stamped (every worker killed before finishing
		// it) reports zero duration.
		var end int64
		for pid := 0; pid < r.t.p; pid++ {
			if v := jb.phaseEnd[pid*len(names)+k].Load(); v > end {
				end = v
			}
		}
		dur := int64(0)
		if end > prev {
			dur = end - prev
			prev = end
		}
		t.Phases = append(t.Phases, PhaseDur{Name: name, DurNs: dur})
	}
	return t
}

// Kill marks worker pid for termination: its next shared-memory
// operation unwinds the current job's graph. Safe to call while a job
// runs — that is its purpose (reaping a sorting thread mid-run, §1 of
// the paper). The worker comes back only if the job's adversary
// revives it (Respawner); a kill with no job in flight is cleared by
// the next Start.
func (t *Team) Kill(pid int) { t.st.kill[pid].Store(true) }

// Close releases the team's workers. The caller must not have a job in
// flight. Close is idempotent.
func (t *Team) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	if t.cur != nil {
		t.mu.Unlock()
		panic("native: Team.Close with a job in flight")
	}
	t.closed = true
	for _, ch := range t.jobs {
		close(ch)
	}
	t.mu.Unlock()
	t.workers.Wait()
}

// worker is one resident goroutine: park on the job channel, run each
// job to completion (including any revival loop), repeat.
func (t *Team) worker(pid int, ch <-chan *teamJob) {
	defer t.workers.Done()
	for jb := range ch {
		t.runJob(pid, jb)
		jb.wg.Done()
	}
}

// runJob executes one job on worker pid, re-entering the graph after
// each landed kill the adversary revives, with the pid's op ordinal
// carried across incarnations. The worker's own goroutine manages its
// pid's deaths, so no lock is needed: incarnations of a pid are
// serialized by construction.
func (t *Team) runJob(pid int, jb *teamJob) {
	st := &t.st
	var notify func(k int)
	if jb.phaseEnd != nil {
		n := jb.Graph.NumWorkerPhases()
		notify = func(k int) {
			jb.phaseEnd[pid*n+k].Store(time.Since(epoch).Nanoseconds())
		}
	}
	var startOps int64
	deaths := 0
	for {
		pr := proc{
			st:  st,
			id:  pid,
			rng: jb.root.Fork(uint64(pid) | uint64(deaths)<<32),
			n:   startOps,
		}
		if jb.Observer != nil {
			pr.ob = jb.Observer.StartIncarnation(pid, startOps)
		}
		rec := runGraph(&pr, jb.Graph, notify)
		if pr.ob != nil {
			pr.ob.End(pr.n)
		}
		if rec == nil {
			return
		}
		if _, wasKill := rec.(model.Killed); !wasKill {
			jb.panicMu.Lock()
			if jb.panicked == nil {
				jb.panicked = fmt.Errorf("native: processor %d panicked: %v", pid, rec)
			}
			jb.panicMu.Unlock()
			return
		}
		jb.killed.Add(1)
		deaths++
		rs, ok := jb.Adversary.(Respawner)
		if !ok || !rs.Respawn(pid, deaths) {
			return
		}
		st.kill[pid].Store(false)
		// An Abort between the kill landing and the flag clearing above
		// must still win: its aborted store precedes its kill stores, so
		// either our clear lost the race (the next op dies and the check
		// below ends the loop then) or we observe aborted here.
		if jb.aborted.Load() {
			return
		}
		jb.respawns.Add(1)
		startOps = pr.n
	}
}

// runGraph runs the graph to completion and returns the recovered
// panic value, if any (model.Killed for a landed kill).
func runGraph(pr *proc, g *engine.Graph, notify func(k int)) (rec any) {
	defer func() { rec = recover() }()
	g.RunNotify(pr, notify)
	return nil
}
