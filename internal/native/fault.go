package native

import (
	"sort"

	"wfsort/internal/model"
)

// Respawner is an optional model.Adversary extension, and a killed
// worker's only way back into a job. After a killed worker has fully
// unwound its graph, the Team asks Respawn(pid, deaths) — deaths counts
// that worker's landed kills this job, starting at 1 — whether to start
// a fresh incarnation. A revived worker reruns the graph from the
// beginning (the wait-free algorithms are restartable: completed work
// is skipped through completion marks) with its op ordinal continuing
// where the dead incarnation stopped, so later strikes keep targeting
// cumulative per-processor op counts.
//
// Respawn runs on the dying worker's own goroutine with no lock held.
// Calls for different pids can overlap; calls for one pid are
// serialized. The job's Wait returns only after every Respawn call has
// returned, so a Respawn may block — until the processor it stands for
// is handed back, say — and the job waits for it.
type Respawner interface {
	Respawn(pid, deaths int) bool
}

// planEvent is one scheduled strike against a processor.
type planEvent struct {
	op     int64 // fire at the first op ordinal >= op
	action model.FaultAction
	stall  int
}

// pidPlan is one processor's event stream plus its cursor. The cursor
// is only ever advanced from that processor's own goroutine (a team
// runs every incarnation of a pid on one goroutine), so it needs no
// locking.
type pidPlan struct {
	events []planEvent
	next   int
}

// Plan is the deterministic fault-injection policy for one native job:
// kill or stall specific processors at exact per-processor operation
// ordinals, and optionally revive them once their death has landed. It
// implements model.Adversary and Respawner; pass it as
// TeamJob.Adversary.
//
// Determinism: the native runtime has no global clock, so a Plan's
// strikes are anchored to each processor's own operation count — the
// quantity the paper's wait-freedom lemmas bound. Where each strike
// lands in a processor's execution is therefore exactly reproducible,
// even though the interleaving between processors remains whatever the
// Go scheduler does. The same model.Crash specs drive simulator crash
// schedules (pram.WithCrashes) and native plans (AddCrashes).
//
// Build the Plan completely before the job starts; it drives at most
// one job (per-processor cursors advance as events fire).
type Plan struct {
	procs   map[int]*pidPlan
	revives map[int]int
}

var (
	_ model.Adversary = (*Plan)(nil)
	_ Respawner       = (*Plan)(nil)
)

// NewPlan returns an empty plan (a no-op adversary).
func NewPlan() *Plan {
	return &Plan{procs: make(map[int]*pidPlan), revives: make(map[int]int)}
}

func (pl *Plan) add(pid int, ev planEvent) *Plan {
	pp := pl.procs[pid]
	if pp == nil {
		pp = &pidPlan{}
		pl.procs[pid] = pp
	}
	pp.events = append(pp.events, ev)
	sort.SliceStable(pp.events, func(i, j int) bool { return pp.events[i].op < pp.events[j].op })
	return pl
}

// KillAt schedules pid's fail-stop in place of its op-th shared-memory
// operation (ordinals count from 1; op <= 1 kills at the first
// operation). A pid killed and revived can be killed again at a later
// ordinal.
func (pl *Plan) KillAt(pid int, op int64) *Plan {
	return pl.add(pid, planEvent{op: op, action: model.FaultKill})
}

// StallAt schedules a stall of `yields` scheduler yields immediately
// before pid's op-th operation.
func (pl *Plan) StallAt(pid int, op int64, yields int) *Plan {
	return pl.add(pid, planEvent{op: op, action: model.FaultStall, stall: yields})
}

// BlockAt schedules a permanent stall in place of pid's op-th
// operation: the processor stops advancing but stays live until killed
// (Team.Kill), the limit case of the fail/delay adversary. The other
// workers must finish the sort without it — and the obs watchdog must
// flag it — but note the job's Wait only returns once the blocked
// processor is killed.
func (pl *Plan) BlockAt(pid int, op int64) *Plan {
	return pl.add(pid, planEvent{op: op, action: model.FaultBlock})
}

// Revive allows pid to be respawned up to times times: each time one of
// its kills lands, the worker re-enters the graph as a fresh
// incarnation.
func (pl *Plan) Revive(pid, times int) *Plan {
	pl.revives[pid] = times
	return pl
}

// AddCrashes maps simulator crash specs onto the plan: each Crash kills
// its processor at the first op ordinal >= Crash.Step (the native
// reading of the shared spec vocabulary — see model.Crash).
func (pl *Plan) AddCrashes(crashes []model.Crash) *Plan {
	for _, c := range crashes {
		pl.KillAt(c.PID, c.Step)
	}
	return pl
}

// PlanCrashes builds a plan from simulator crash specs alone.
func PlanCrashes(crashes []model.Crash) *Plan {
	return NewPlan().AddCrashes(crashes)
}

// Strike implements model.Adversary. At most one event fires per
// operation; events whose ordinal has passed fire at the next
// opportunity (matching pram.WithCrashes' "first step >= Step"
// semantics).
func (pl *Plan) Strike(pid int, op int64) model.Fault {
	pp := pl.procs[pid]
	if pp == nil || pp.next >= len(pp.events) {
		return model.Fault{}
	}
	ev := pp.events[pp.next]
	if ev.op > op {
		return model.Fault{}
	}
	pp.next++
	switch ev.action {
	case model.FaultKill:
		return model.Fault{Action: model.FaultKill}
	case model.FaultStall:
		return model.Fault{Action: model.FaultStall, StallOps: ev.stall}
	case model.FaultBlock:
		return model.Fault{Action: model.FaultBlock}
	}
	return model.Fault{}
}

// Respawn implements Respawner: a pid is revived while its landed-death
// count stays within its Revive allowance.
func (pl *Plan) Respawn(pid, deaths int) bool {
	return deaths <= pl.revives[pid]
}
