// Package wfsort is a wait-free parallel sorting library, a faithful
// implementation of Shavit, Upfal and Zemach, "A Wait-Free Sorting
// Algorithm" (PODC 1997).
//
// The algorithm sorts N elements with P <= N cooperating workers in
// three wait-free phases: a Quicksort pivot tree is built by
// compare-and-swap, subtree sizes are summed, and each element's rank
// is derived from its position in the tree. No worker ever waits for
// another: work is handed out through work-assignment trees, so any
// worker can be killed (or descheduled indefinitely) at any moment and
// the survivors still finish the sort in bounded time. On a faultless
// machine the running time is O(N log N / P) with high probability.
//
// Two execution modes are exposed:
//
//   - Sort, SortFunc and the pooled sorters run on real goroutines over
//     sync/atomic shared state — a usable parallel sort whose workers
//     may be reaped at any time (examples/oskernel demonstrates live
//     reap and respawn). They run one sort, a block-leaf kernel: the
//     paper's work-assignment trees hand out blocks to sort privately
//     and merge segments to write, so it keeps the paper's wait-freedom
//     while its jobs suit hardware caches.
//   - Simulate runs the paper's own algorithms (see Variant) on a
//     deterministic CRCW PRAM simulator with exact step counts,
//     per-variable contention accounting and crash injection — the
//     research instrument behind EXPERIMENTS.md.
//
// Sorting is stable: equal elements keep their input order (the
// paper's index tie-break).
package wfsort

import (
	"cmp"
	"context"
	"fmt"
	"runtime"

	"wfsort/internal/layout"
	"wfsort/internal/model"
	"wfsort/internal/native"
	"wfsort/internal/obs"
	"wfsort/internal/pram"
	"wfsort/internal/xrand"
)

// Variant selects which of the paper's algorithms Simulate runs.
// Native sorts always run the block-leaf kernel and ignore it.
type Variant int

// Algorithm variants.
const (
	// Deterministic is the Section 2 algorithm with deterministic
	// work-assignment trees. Its pivot tree degenerates on
	// already-sorted inputs.
	Deterministic Variant = iota
	// Randomized is the Section 2 algorithm with the §2.3 randomized
	// work allocation: the pivot tree is O(log N) deep w.h.p. for any
	// input order. The default.
	Randomized
	// LowContention is the Section 3 algorithm: sqrt(P) processor
	// groups, winner selection and a duplicated fat tree cut memory
	// contention from O(P) to O(sqrt(P)). It needs at least 4 workers
	// and N >= P; below that it falls back to Randomized.
	LowContention
)

// String returns the variant's mnemonic.
func (v Variant) String() string {
	switch v {
	case Deterministic:
		return "deterministic"
	case Randomized:
		return "randomized"
	case LowContention:
		return "lowcontention"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Metrics re-exports the run cost report shared by both runtimes.
type Metrics = model.Metrics

// Observer re-exports the wait-free observability plane for the native
// runtime: per-incarnation event rings, phase-latency histograms, a
// Chrome/Perfetto trace exporter (WriteTrace) and a live Snapshot for
// metrics endpoints. Create one per sort with NewObserver, install it
// with WithObserver, and read it after SortFunc returns. Recording is
// wait-free: each goroutine writes only its own preallocated ring, so
// an installed observer never introduces a wait point.
type Observer = obs.Observer

// NewObserver returns an observability plane with default sizing,
// ready to install on one sort via WithObserver.
func NewObserver() *Observer { return obs.New(obs.Config{}) }

// Bits recording which options were set explicitly, so pool-backed
// sorters can reject options that conflict with the pool's fixed
// configuration instead of silently ignoring them.
const (
	setWorkers = 1 << iota
	setVariant
	setSeed
	setObserver
	setSchedule
	setChurn
	setCrashes
	setPool
	setQueuePolicy
)

type config struct {
	workers     int
	variant     Variant // simulation only
	seed        uint64
	sched       pram.Scheduler     // simulation only
	observer    *obs.Observer      // native only
	churnKills  int                // native only: kill+revive every non-zero worker
	crashFrac   float64            // native only: fail-stop a seeded fraction
	crashWindow int64              // op-ordinal window for crashFrac strikes
	pool        *Pool              // NewSorter only
	queuePolicy native.QueuePolicy // NewPool/NewSorter only: admission queue order
	explicit    int                // set* bits
}

// Option customizes a sort or simulation.
type Option func(*config)

// WithWorkers sets the number of parallel workers (goroutines, or
// simulated processors). Defaults to GOMAXPROCS, capped at the input
// size.
func WithWorkers(p int) Option {
	return func(c *config) { c.workers = p; c.explicit |= setWorkers }
}

// WithVariant selects the paper's algorithm Simulate runs. Defaults
// to Randomized. Simulation only: native sorts and pools run the
// block-leaf kernel, which has no pivot tree for the variant to shape,
// and ignore it, as they ignore WithSchedule.
func WithVariant(v Variant) Option {
	return func(c *config) { c.variant = v; c.explicit |= setVariant }
}

// WithSeed fixes the seed behind all randomized choices, making
// simulator runs exactly reproducible. Defaults to 0.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed; c.explicit |= setSeed }
}

// WithObserver installs an observability plane on the native run (see
// Observer). Like the sort runtime itself, one Observer drives at most
// one sort. When nil (the default) the recording hook costs a single
// pointer compare per operation. Native only; Simulate ignores it —
// the simulator's exact metrics come from the machine itself.
func WithObserver(o *Observer) Option {
	return func(c *config) { c.observer = o; c.explicit |= setObserver }
}

// WithSchedule sets the simulated schedule: asynchrony models,
// adversaries and crash injection, built with the constructors in
// wfsort/sim. Simulation only; Sort ignores it. Defaults to the
// faultless synchronous schedule.
func WithSchedule(s pram.Scheduler) Option {
	return func(c *config) { c.sched = s; c.explicit |= setSchedule }
}

// WithChurn kills every worker except worker 0 `kills` times per sort,
// at staggered operation ordinals, reviving each one — the sort always
// completes, having survived (workers-1)*kills mid-flight failures.
// This is the soak-test fault plane: wait-freedom makes the injected
// deaths invisible in the output. Native sorts only; Simulate rejects
// it (use WithSchedule for simulated faults).
func WithChurn(kills int) Option {
	return func(c *config) { c.churnKills = kills; c.explicit |= setChurn }
}

// WithCrashes fail-stops a seeded random fraction of the workers —
// never worker 0, so the sort still completes — at operation ordinals
// drawn from [1, window]; window <= 0 means 64. Crashed workers stay
// dead for the rest of that sort. On a pooled Sorter the workers'
// goroutines survive the unwind, so every sort faces the same fraction
// afresh: the "crash-half" serving regime of EXPERIMENTS.md E22.
// Native sorts only; Simulate rejects it.
func WithCrashes(frac float64, window int64) Option {
	return func(c *config) {
		c.crashFrac = frac
		c.crashWindow = window
		c.explicit |= setCrashes
	}
}

// WithPipeline is accepted and ignored everywhere: every pooled sort
// borrows a resident team of its own for the call. The option once
// routed a pool's sorts through one shared phase-pipelined crew, which
// measured no faster than a team per sort on any workload it served
// (DESIGN §11).
//
// Deprecated: it has no effect; drop it.
func WithPipeline(depth int) Option {
	return func(*config) {}
}

// applyOptions folds opts over the defaults and validates everything
// that does not depend on the input size.
func applyOptions(opts []Option) (config, error) {
	c := config{workers: runtime.GOMAXPROCS(0), variant: Randomized}
	for _, o := range opts {
		o(&c)
	}
	if c.workers < 1 {
		return c, fmt.Errorf("wfsort: workers must be >= 1, got %d", c.workers)
	}
	if c.variant < Deterministic || c.variant > LowContention {
		return c, fmt.Errorf("wfsort: unknown variant %v", c.variant)
	}
	if c.churnKills < 0 {
		return c, fmt.Errorf("wfsort: churn kills must be >= 0, got %d", c.churnKills)
	}
	if c.crashFrac < 0 || c.crashFrac > 1 {
		return c, fmt.Errorf("wfsort: crash fraction must be in [0,1], got %g", c.crashFrac)
	}
	return c, nil
}

func buildConfig(n int, opts []Option) (config, error) {
	c, err := applyOptions(opts)
	if err != nil {
		return c, err
	}
	if c.pool != nil {
		return c, fmt.Errorf("wfsort: WithPool applies to NewSorter, not one-shot sorts")
	}
	if c.explicit&setQueuePolicy != 0 {
		return c, fmt.Errorf("wfsort: WithQueuePolicy applies to NewPool/NewSorter, not one-shot sorts")
	}
	if c.workers > n {
		c.workers = n // P <= N is the paper's regime; extra workers idle anyway
	}
	return c, nil
}

// adversary builds the per-sort fault plane requested by WithChurn and
// WithCrashes; nil when neither is set. seq varies the crash draw from
// sort to sort on a pooled Sorter.
func (c config) adversary(seq uint64) model.Adversary {
	if c.churnKills <= 0 && c.crashFrac <= 0 {
		return nil
	}
	pl := native.NewPlan()
	if c.churnKills > 0 {
		for pid := 1; pid < c.workers; pid++ {
			for k := 0; k < c.churnKills; k++ {
				// Low, staggered ordinals: even on one CPU a worker that
				// arrives to find all work done has executed a few ops.
				pl.KillAt(pid, int64(2+3*pid+17*k))
			}
			pl.Revive(pid, c.churnKills)
		}
	}
	if c.crashFrac > 0 {
		window := c.crashWindow
		if window <= 0 {
			window = 64
		}
		rng := xrand.New(c.seed ^ (seq+1)*0x9e3779b97f4a7c15)
		for pid := 1; pid < c.workers; pid++ {
			if rng.Float64() < c.crashFrac {
				pl.KillAt(pid, 1+int64(rng.Intn(int(window))))
			}
		}
	}
	return pl
}

// Sort sorts data in place using wait-free parallel workers. It is
// stable. The zero-length and single-element cases return immediately.
func Sort[E cmp.Ordered](data []E, opts ...Option) error {
	return SortFunc(data, func(a, b E) bool { return a < b }, opts...)
}

// SortFunc sorts data in place by the given strict ordering, using
// wait-free parallel workers. Ties are broken by original position, so
// the sort is stable. less must be a strict weak ordering; it is called
// concurrently and must be safe for concurrent use on immutable data.
// data is read in place, not copied, and is written only by the final
// permutation.
func SortFunc[E any](data []E, less func(a, b E) bool, opts ...Option) error {
	if less == nil {
		return fmt.Errorf("wfsort: SortFunc requires a less function")
	}
	if len(data) < 2 {
		return nil
	}
	p, err := oneCall(len(data), opts)
	if err != nil {
		return err
	}
	return sortOn(context.Background(), p, data, nil, less)
}

// SimResult reports one simulated sort.
type SimResult struct {
	// Ranks holds each input element's final 1-based rank.
	Ranks []int
	// Metrics is the exact cost accounting: steps, operations, maximum
	// per-variable contention, stalls, per-phase breakdown.
	Metrics *Metrics
	// TreeDepth is the depth of the pivot tree the run built.
	TreeDepth int
}

// Simulate runs the sort on the deterministic CRCW PRAM simulator and
// returns the ranks together with exact cost metrics. keys supply the
// ordering (ties broken by index); the input is not modified.
func Simulate(keys []int, opts ...Option) (*SimResult, error) {
	n := len(keys)
	if n == 0 {
		return &SimResult{Metrics: &Metrics{}}, nil
	}
	c, err := buildConfig(n, opts)
	if err != nil {
		return nil, err
	}
	if c.churnKills > 0 || c.crashFrac > 0 {
		return nil, fmt.Errorf("wfsort: WithChurn/WithCrashes are native-only; simulate faults with WithSchedule")
	}
	less := func(i, j int) bool {
		a, b := keys[i-1], keys[j-1]
		if a != b {
			return a < b
		}
		return i < j
	}
	r, a := layout.Sim(layout.Variant(c.variant), n, c.workers)
	m := pram.New(pram.Config{P: c.workers, Mem: a.Size(), Seed: c.seed, Sched: c.sched, Less: less})
	r.Seed(m.Memory())
	met, err := m.Run(r.Program())
	if err != nil {
		return nil, err
	}
	return &SimResult{
		Ranks:     r.Places(m.Memory()),
		Metrics:   met,
		TreeDepth: r.Depth(m.Memory()),
	}, nil
}
