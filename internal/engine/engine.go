// Package engine is the phase-graph orchestration layer shared by every
// sort in this repository. The paper's skeleton algorithm (Fig. 2) is a
// sequence of individually gated phases: a processor leaves build_tree
// only when the whole pivot tree is built, leaves tree_sum only having
// verified the root's size, and so on — the gates live *inside* each
// phase, which is exactly why no barriers are needed and why the sort
// is wait-free. Until this package existed that structure was encoded
// twice as inline straight-line code (core.Sorter.Sort phases 1–4,
// lowcont.Sorter.Sort phases A–G); here it becomes a first-class object
// — a Graph of typed Phase descriptors — that one scheduler executes on
// either runtime (the deterministic PRAM simulator or the native
// goroutine runtime).
//
// Making the structure data instead of control flow buys three things:
//
//   - one orchestration copy: the sorters *declare* their phase
//     sequences; the engine runs them, emitting the per-phase labels
//     that drive the simulator's phase attribution and the obs plane's
//     spans and latency histograms (Proc.Phase is free on both
//     runtimes, so engine-driven runs are byte-identical to the seed's
//     inline loops — the simulator goldens pin this down);
//   - host-side introspection: each phase can carry a completion
//     predicate over the arena (what "this phase's global work is
//     done" means in memory);
//   - per-phase timing: a runtime can run a graph with a completion
//     notification per phase (RunNotify) and stamp when each worker
//     finished each phase — see native.TeamRun.Timing.
//
// A Graph is immutable after construction and stateless between runs:
// all mutable sort state lives in the runtime's shared memory, and any
// per-processor locals a graph's phases share travel in a State value
// created per execution (per incarnation — a respawned worker re-enters
// the graph from the top and rebuilds its locals from shared memory,
// which is the restartability the completion marks already guarantee).
package engine

import "wfsort/internal/model"

// Body is one phase's per-processor work. st is the graph's
// per-execution carried state (see Graph.WithState); graphs that do not
// declare state receive nil.
type Body func(p model.Proc, st any)

// Phase is one gated stage of a wait-free program.
type Phase struct {
	// Name labels the phase for metrics attribution, obs spans and
	// latency histograms ("1:build", "G:shuffle", ...).
	Name string
	// Body is the per-processor work. The body must be self-gating: it
	// returns only when the phase's *global* work is complete (or the
	// processor has proof someone else will complete it), never relying
	// on other processors making progress — that is the wait-freedom
	// contract every phase in this repository honors. A nil Body marks
	// a host-only phase, one that carries only a completion predicate:
	// the engine skips it entirely on workers.
	Body Body
	// Done, when non-nil, is the host-side completion predicate: it
	// inspects a run's memory and reports whether this phase's global
	// work is complete. It is diagnostic — the certification harness
	// and tests call it after runs; the phases gate themselves — and
	// must only be used on quiescent memory (plain reads).
	Done func(mem []model.Word) bool
	// Quiet suppresses the engine's Proc.Phase(Name) label, for phases
	// whose bodies emit their own finer-grained labels — the
	// low-contention sort's inner phase runs a whole subgraph through a
	// prefixing model.SubProc, so an outer label would manufacture an
	// empty attribution bucket that the seed behavior never had.
	Quiet bool
}

// Graph is an ordered sequence of phases plus an optional per-execution
// state factory. Build one with New/Add at layout time; it is immutable
// afterwards and safe for concurrent executions.
type Graph struct {
	name     string
	newState func() any
	phases   []Phase
	workers  int // phases with a worker body
}

// New starts an empty graph. The name labels it in diagnostics.
func New(name string) *Graph { return &Graph{name: name} }

// WithState declares a per-execution state factory: each Run calls it
// once and threads the value through every phase body, so phases can
// carry per-processor locals (the low-contention sort's elected winner
// and learned root) without the graph itself holding any mutable state.
func (g *Graph) WithState(f func() any) *Graph {
	g.newState = f
	return g
}

// Add appends a phase and returns the graph for chaining.
func (g *Graph) Add(ph Phase) *Graph {
	g.phases = append(g.phases, ph)
	if ph.Body != nil {
		g.workers++
	}
	return g
}

// Name returns the graph's diagnostic label.
func (g *Graph) Name() string { return g.name }

// Phases returns the phase sequence. Callers must not mutate it.
func (g *Graph) Phases() []Phase { return g.phases }

// NumWorkerPhases returns how many phases have worker bodies — the
// count RunNotify's completion indices range over.
func (g *Graph) NumWorkerPhases() int { return g.workers }

// WorkerPhaseNames returns the worker phases' labels in RunNotify
// index order — the names a runtime attaches to per-phase timings it
// collects through the notification hook. The slice is freshly
// allocated; callers may keep it.
func (g *Graph) WorkerPhaseNames() []string {
	out := make([]string, 0, g.workers)
	for i := range g.phases {
		if g.phases[i].Body != nil {
			out = append(out, g.phases[i].Name)
		}
	}
	return out
}

// Run executes every worker phase in order on the calling processor.
func (g *Graph) Run(p model.Proc) { g.RunNotify(p, nil) }

// RunNotify is Run with a phase-completion hook: notify(k) fires after
// the k-th worker phase's body returns (k counts worker phases from 0,
// skipping host-only ones). The hook is what lets native.Team stamp
// per-phase completion times without the sorters knowing timing
// exists. A killed processor unwinds out of the body without the
// notification; its next incarnation re-enters from phase 0, so within
// one incarnation the notified indices are strictly increasing from 0 —
// the invariant the team's last-completion stamps rely on.
func (g *Graph) RunNotify(p model.Proc, notify func(k int)) {
	var st any
	if g.newState != nil {
		st = g.newState()
	}
	k := 0
	for i := range g.phases {
		ph := &g.phases[i]
		if ph.Body == nil {
			continue
		}
		if !ph.Quiet {
			p.Phase(ph.Name)
		}
		ph.Body(p, st)
		if notify != nil {
			notify(k)
		}
		k++
	}
}

// Program adapts the graph to the simulator's entry-point type
// (pram.Machine.Run); native.Team runs the graph itself.
func (g *Graph) Program() model.Program {
	return func(p model.Proc) { g.Run(p) }
}

// Done reports whether every phase with a completion predicate is
// complete in mem — the host-side certification that a run's memory
// really holds a finished sort. Quiescent memory only.
func (g *Graph) Done(mem []model.Word) bool {
	for i := range g.phases {
		if d := g.phases[i].Done; d != nil && !d(mem) {
			return false
		}
	}
	return true
}

// FirstUndone returns the name of the first phase whose completion
// predicate fails, or "" when all pass — the certifier's one-line
// diagnosis of how far a doomed run got.
func (g *Graph) FirstUndone(mem []model.Word) string {
	for i := range g.phases {
		if d := g.phases[i].Done; d != nil && !d(mem) {
			return g.phases[i].Name
		}
	}
	return ""
}

// Embed builds a phase body that runs an inner graph through a remapped
// processor view: choose picks, per processor, the subgraph and the
// model.Proc it executes under — typically a model.SubProc that renames
// the processor into the subgroup's dense pid space and prefixes its
// phase labels. This is how the §3 sort's per-group inner sorts embed
// as subgraphs (phase "A:"), with the inner graph's own labels carried
// through the prefix.
func Embed(choose func(p model.Proc) (sub *Graph, view model.Proc)) Body {
	return func(p model.Proc, _ any) {
		sub, view := choose(p)
		sub.Run(view)
	}
}
