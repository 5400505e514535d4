// Package chaos is the wait-freedom certification harness for the
// native runtime. The paper's headline guarantee — every surviving
// processor completes the sort in bounded steps no matter which
// processors crash and when — is exercised in the simulator by
// adversarial schedulers and crash schedules; this package carries the
// same discipline to real goroutines:
//
//   - seeded, deterministic fault schedules (native.Plan) drive kills,
//     stalls and respawns at exact per-processor operation ordinals;
//   - after every run the certifier checks the sorted output AND a
//     per-processor operation ceiling derived from the paper's
//     O(N log N / P) bound, scaled by a measured constant — turning
//     "survivors finish in bounded time" into an asserted property;
//   - differential runs push the same model.Crash specs through
//     internal/pram and internal/native (across every arena layout) and
//     require identical sorted output.
//
// Every native run builds its sort through layout.New, the mapping the
// root package uses, so the sharded leg certifies the block-leaf kernel
// that wfsort runs by default and the padded and flat legs the paper's
// pivot tree. cmd/chaos sweeps adversary policies x P x layouts and
// emits a JSON report; the CI chaos-smoke job runs a small sweep under
// -race.
package chaos

import (
	"cmp"
	"fmt"
	"math/bits"
	"os"
	"sort"
	"time"

	"wfsort/internal/layout"
	"wfsort/internal/model"
	"wfsort/internal/native"
	"wfsort/internal/obs"
	"wfsort/internal/pram"
	"wfsort/internal/xrand"
)

// Stall schedules one injected delay: Yields scheduler yields before
// processor PID's Op-th operation.
type Stall struct {
	PID    int
	Op     int64
	Yields int
}

// Spec describes one chaos run.
type Spec struct {
	// Keys is the input; ties break by index (the sort is stable).
	Keys []int
	// P is the worker count.
	P int
	// Layout is the native arena layout (ignored by RunPram).
	Layout layout.Layout
	// Seed drives the algorithm's random choices.
	Seed uint64
	// Crashes is the shared crash schedule: op ordinals on native,
	// machine steps on the simulator. At least one processor must be
	// spared or the sort cannot complete (see CrashQuorum).
	Crashes []model.Crash
	// Revives allows each crashed processor that many respawns (native
	// only; the simulator's crash model is permanent fail-stop).
	Revives int
	// Stalls are injected delays (native only).
	Stalls []Stall
	// LowCont runs the §3 low-contention variant on the dense arena
	// instead of the §2 randomized sort (needs P >= 4 and N >= P; Layout
	// does not apply — the §3 machinery has its own contention story).
	LowCont bool
	// TraceOut, when non-empty, attaches an internal/obs observer to
	// the native run and, if the run fails to sort or certify, writes a
	// Perfetto JSON postmortem trace to this path (Result.TracePath
	// reports where).
	TraceOut string
}

// CrashQuorum builds a seeded crash schedule killing roughly frac of p
// processors inside the window but always sparing processor 0, so
// completion is possible. The same schedule drives both runtimes.
func CrashQuorum(p int, frac float64, window int64, seed uint64) []model.Crash {
	crashes := model.RandomCrashes(p, frac, window, seed)
	kept := crashes[:0]
	for _, c := range crashes {
		if c.PID != 0 {
			kept = append(kept, c)
		}
	}
	return kept
}

// Massacre builds a crash schedule killing every processor except 0 at
// staggered op ordinals — the harshest quorum wait-freedom permits.
func Massacre(p int, window int64) []model.Crash {
	var out []model.Crash
	for pid := 1; pid < p; pid++ {
		step := int64(1)
		if window > 1 {
			step = 1 + (int64(pid)*2654435761)%(window-1)
		}
		out = append(out, model.Crash{Step: step, PID: pid})
	}
	return out
}

// StallStorm builds a deterministic stall schedule: every processor is
// delayed `count` times at stride-spaced ordinals.
func StallStorm(p, count int, stride int64, yields int) []Stall {
	var out []Stall
	for pid := 0; pid < p; pid++ {
		for k := 1; k <= count; k++ {
			out = append(out, Stall{PID: pid, Op: int64(k)*stride + int64(pid), Yields: yields})
		}
	}
	return out
}

// boundScale is the measured constant scaling the paper-derived op
// ceiling (see Bound). Calibrated against the cmd/chaos sweep on the
// reference machine (N in {1k..64k}, P in {2..16}, every policy and
// layout): observed per-processor maxima — including lone survivors
// absorbing the whole sort after a massacre — sit below 0.36x the
// ceiling, leaving ~3x headroom for scheduler variance and CAS-retry
// inflation before certification fails.
const boundScale = 12

// Bound returns the certified per-processor operation ceiling for a
// sort of n elements: the paper's O(N log N / P) running time evaluated
// at P = 1, plus the O(N) phase-2/3 traversal term, scaled by the
// measured constant boundScale.
//
// P = 1 is the evaluation wait-freedom itself picks. The /P form of
// the bound assumes a synchronous scheduler that advances every
// survivor equally; the defining promise of wait-freedom is bounded
// completion WITHOUT that assumption — an arbitrarily unfair scheduler
// (the simulator's RoundRobin(1), or the Go scheduler under CPU
// oversubscription) may leave a single processor to absorb the entire
// remaining sort even while other workers are technically alive, and
// chaos sweeps observe exactly that concentration. The solo ceiling is
// the per-processor bound that actually holds under any schedule, so
// it is what certification asserts; sweep reports carry the measured
// survivor counts and max/bound ratios so the concentration stays
// visible.
func Bound(n int) int64 {
	logN := int64(bits.Len(uint(n)))
	return boundScale * (int64(n)*logN + int64(n) + 256)
}

// Result reports one certified chaos run.
type Result struct {
	Policy    string  `json:"policy"`
	Variant   string  `json:"variant"`
	Layout    string  `json:"layout"`
	N         int     `json:"n"`
	P         int     `json:"p"`
	Seed      uint64  `json:"seed"`
	Sorted    bool    `json:"sorted"`
	Killed    int     `json:"killed"`
	Respawns  int     `json:"respawns"`
	Survivors int     `json:"survivors"`
	Stalls    int64   `json:"injected_stalls"`
	MaxOps    int64   `json:"max_ops"`
	Bound     int64   `json:"bound"`
	Certified bool    `json:"certified"`
	Sized     int     `json:"sized"`
	Placed    int     `json:"placed"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Error     string  `json:"error,omitempty"`
	TracePath string  `json:"trace,omitempty"`
}

// OK reports whether the run sorted correctly and certified within the
// op ceiling.
func (r Result) OK() bool { return r.Error == "" && r.Sorted && r.Certified }

// plan compiles a spec's fault schedule into a native adversary; nil
// when the spec injects no faults.
func (s Spec) plan() *native.Plan {
	if len(s.Crashes) == 0 && len(s.Stalls) == 0 {
		return nil
	}
	pl := native.NewPlan().AddCrashes(s.Crashes)
	for _, st := range s.Stalls {
		pl.StallAt(st.PID, st.Op, st.Yields)
	}
	if s.Revives > 0 {
		for _, c := range s.Crashes {
			pl.Revive(c.PID, s.Revives)
		}
	}
	return pl
}

// lessFor builds the strict total order over 1-based element ids, ties
// broken by index.
func lessFor(keys []int) func(i, j int) bool {
	return func(i, j int) bool {
		a, b := keys[i-1], keys[j-1]
		if a != b {
			return a < b
		}
		return i < j
	}
}

// SortedRef returns the host-side reference: keys stably sorted.
func SortedRef(keys []int) []int {
	ref := make([]int, len(keys))
	copy(ref, keys)
	sort.SliceStable(ref, func(a, b int) bool { return ref[a] < ref[b] })
	return ref
}

// outputOf scatters keys by their 1-based places; an invalid
// permutation (the trail of an unfinished run) returns an error.
func outputOf(keys []int, places []int) ([]int, error) {
	out := make([]int, len(keys))
	seen := make([]bool, len(keys))
	for i, r := range places {
		if r < 1 || r > len(keys) || seen[r-1] {
			return nil, fmt.Errorf("places is not a permutation: element %d has rank %d", i+1, r)
		}
		seen[r-1] = true
		out[r-1] = keys[i]
	}
	return out, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunNative executes one spec on the native runtime and certifies it.
// The returned error covers harness-level failures (a panic escaping
// the program); sort or certification failures are reported in the
// Result so sweeps keep going. With Spec.TraceOut set, a failing run
// additionally leaves a Perfetto postmortem trace behind.
func RunNative(spec Spec) (res Result, err error) {
	n := len(spec.Keys)
	res = Result{
		Layout: spec.Layout.String(), Variant: "randomized",
		N: n, P: spec.P, Seed: spec.Seed,
	}
	if spec.LowCont {
		res.Variant = "lowcontention"
		res.Layout = "dense"
	}

	l, v := spec.Layout, layout.Randomized
	if spec.LowCont {
		l, v = layout.Flat, layout.LowContention
	}
	s, alloc, err := layout.New(l, v, n, spec.P)
	if err != nil {
		res.Error = err.Error()
		return res, err
	}

	var observer *obs.Observer
	if spec.TraceOut != "" {
		observer = obs.New(obs.Config{})
	}
	rt := native.New(native.Config{
		P: spec.P, Mem: alloc.Size(), Seed: spec.Seed,
		Less: lessFor(spec.Keys), CountOps: true,
		Adversary: adversaryOrNil(spec.plan()),
		Observer:  observer,
	})
	s.Seed(rt.Memory())
	t0 := time.Now()
	met, err := rt.Run(s.Program())
	res.ElapsedMS = float64(time.Since(t0).Microseconds()) / 1000
	defer func() {
		// Postmortem: a run that failed to sort or certify dumps its
		// per-incarnation event rings as a Perfetto trace, so the exact
		// schedule that broke certification can be inspected in a
		// viewer rather than reconstructed from counters.
		if observer == nil || res.OK() {
			return
		}
		f, ferr := os.Create(spec.TraceOut)
		if ferr != nil {
			return
		}
		defer f.Close()
		if observer.WriteTrace(f) == nil {
			res.TracePath = spec.TraceOut
		}
	}()
	if err != nil {
		res.Error = err.Error()
		return res, err
	}

	res.Killed = met.Killed
	res.Respawns = met.Respawns
	res.Stalls = met.InjectedStalls
	res.Survivors = spec.P - met.Killed + met.Respawns
	res.Sized, res.Placed = s.Progress(rt.Memory())

	out, perr := outputOf(spec.Keys, s.Places(rt.Memory()))
	res.Sorted = perr == nil && equalInts(out, SortedRef(spec.Keys))
	if perr != nil {
		res.Error = perr.Error()
	}

	res.Bound = Bound(n)
	res.MaxOps = 0
	for _, ops := range rt.OpsPerProc() {
		if ops > res.MaxOps {
			res.MaxOps = ops
		}
	}
	res.Certified = res.MaxOps <= res.Bound
	return res, nil
}

// ResidentSpec scales the resident-team chaos battery: Jobs sorts of
// N keys, laid out for Layout, run one after another on one resident
// team of P workers, and every even-numbered job is struck by a seeded
// crash quorum killing roughly Frac of the workers (pid 0 spared, no
// revival) within their first residentKillWindow operations.
type ResidentSpec struct {
	N, P, Jobs int
	Layout     layout.Layout
	Seed       uint64
	Frac       float64
}

// residentKillWindow bounds the op ordinals of the resident battery's
// kills. A worker that starts after its peers finished a kernel sort
// executes only about ten operations, reading done marks on its way
// out, so a kill drawn from a window of N ordinals often never lands
// on a loaded host and the struck job certifies nothing; every worker
// reaches this many.
const residentKillWindow = 8

// RunResident is the serving-regime counterpart of RunNative: it
// certifies wait-freedom across job boundaries on the resident team
// that runs every pooled sort, not just within one sort. Each job is
// certified on its own: sorted output, every completion predicate of
// its phase graph satisfied, and the per-processor op ceiling
// (TeamRun.OpsPerProc against Bound). The struck jobs prove the
// survivors finish without the dead; the faultless jobs between them
// prove the team is back at full strength without a goroutine ever
// respawning, because a kill unwinds only the graph, not the worker.
func RunResident(spec ResidentSpec) ([]Result, error) {
	if spec.Jobs < 1 {
		spec.Jobs = 1
	}
	team := native.NewTeam(spec.P, true)
	defer team.Close()

	results := make([]Result, 0, spec.Jobs)
	for j := 0; j < spec.Jobs; j++ {
		keys := randKeys(spec.N, spec.Seed+uint64(j)*0x9e37)
		s, a, err := layout.New(spec.Layout, layout.Randomized, spec.N, spec.P)
		if err != nil {
			return results, err
		}
		mem := make([]model.Word, a.Size())
		s.Seed(mem)
		job := native.TeamJob{
			Graph: s.Graph(), Mem: mem, Less: lessFor(keys),
			Seed: spec.Seed + uint64(j),
		}
		if j%2 == 0 && spec.Frac > 0 {
			crashes := CrashQuorum(spec.P, spec.Frac, residentKillWindow, spec.Seed+uint64(13*j+7))
			if len(crashes) > 0 {
				job.Adversary = native.NewPlan().AddCrashes(crashes)
			}
		}
		res := Result{
			Policy: "resident-crash-half", Variant: "randomized", Layout: spec.Layout.String(),
			N: spec.N, P: spec.P, Seed: spec.Seed + uint64(j),
		}
		run := team.Start(job)
		met, werr := run.Wait()
		if werr != nil {
			res.Error = werr.Error()
			results = append(results, res)
			return results, werr
		}
		res.ElapsedMS = float64(run.Elapsed.Microseconds()) / 1000
		res.Killed = met.Killed
		res.Respawns = met.Respawns
		res.Stalls = met.InjectedStalls
		res.Survivors = spec.P - met.Killed + met.Respawns
		res.Sized, res.Placed = s.Progress(mem)

		out, perr := outputOf(keys, s.Places(mem))
		res.Sorted = perr == nil && equalInts(out, SortedRef(keys))
		if perr != nil {
			res.Error = perr.Error()
		}
		if name := s.Graph().FirstUndone(mem); name != "" && res.Error == "" {
			res.Error = fmt.Sprintf("phase %q predicate unsatisfied after completion", name)
			res.Sorted = false
		}

		res.Bound = Bound(spec.N)
		for _, ops := range run.OpsPerProc() {
			res.MaxOps = max(res.MaxOps, ops)
		}
		res.Certified = res.MaxOps <= res.Bound
		results = append(results, res)
	}
	return results, nil
}

// adversaryOrNil avoids wrapping a nil *Plan in a non-nil interface.
func adversaryOrNil(pl *native.Plan) model.Adversary {
	if pl == nil {
		return nil
	}
	return pl
}

// RunPram executes the spec's crash schedule on the simulator (Crash
// Step read as a machine step, the dense paper layout) and returns the
// sorted output.
func RunPram(spec Spec) ([]int, *model.Metrics, error) {
	n := len(spec.Keys)
	v := layout.Randomized
	if spec.LowCont {
		v = layout.LowContention
	}
	s, a, err := layout.New(layout.Flat, v, n, spec.P)
	if err != nil {
		return nil, nil, err
	}
	var sched pram.Scheduler
	if len(spec.Crashes) > 0 {
		sched = pram.WithCrashes(pram.Synchronous(), spec.Crashes)
	}
	m := pram.New(pram.Config{
		P: spec.P, Mem: a.Size(), Seed: spec.Seed,
		Sched: sched, Less: lessFor(spec.Keys),
	})
	s.Seed(m.Memory())
	met, err := m.Run(s.Program())
	if err != nil {
		return nil, met, err
	}
	out, perr := outputOf(spec.Keys, s.Places(m.Memory()))
	if perr != nil {
		return nil, met, perr
	}
	return out, met, nil
}

// Differential runs one seeded crash schedule through the simulator and
// through the native runtime on every arena layout, and errors unless
// all four sorted outputs are identical and correct — the cross-runtime
// consistency check behind the repo's central claim.
func Differential(keys []int, p int, seed uint64, crashes []model.Crash) error {
	ref := SortedRef(keys)
	spec := Spec{Keys: keys, P: p, Seed: seed, Crashes: crashes}

	simOut, _, err := RunPram(spec)
	if err != nil {
		return fmt.Errorf("pram run: %w", err)
	}
	if !equalInts(simOut, ref) {
		return fmt.Errorf("pram output differs from the stable-sorted reference")
	}
	for _, l := range layout.All() {
		spec.Layout = l
		res, err := RunNative(spec)
		if err != nil {
			return fmt.Errorf("native %v run: %w", l, err)
		}
		if !res.Sorted {
			return fmt.Errorf("native %v output differs from the reference (%s)", l, res.Error)
		}
		if !res.Certified {
			return fmt.Errorf("native %v exceeded the op ceiling: max ops %d > bound %d (survivors %d)",
				l, res.MaxOps, res.Bound, res.Survivors)
		}
	}
	return nil
}

// Policy is one named adversary configuration of the sweep.
type Policy struct {
	Name string
	// Frac kills roughly this fraction of processors (sparing pid 0).
	Frac float64
	// AllButOne kills every processor except 0, overriding Frac.
	AllButOne bool
	// Revives respawns each crashed processor this many times.
	Revives int
	// StallStorm injects the deterministic stall schedule.
	StallStorm bool
}

// Policies returns the sweep's adversary configurations.
func Policies() []Policy {
	return []Policy{
		{Name: "faultless"},
		{Name: "crash-half", Frac: 0.5},
		{Name: "crash-all-but-one", AllButOne: true},
		{Name: "crash-revive", Frac: 0.5, Revives: 1},
		{Name: "stall-storm", StallStorm: true},
	}
}

// BuildSpec instantiates a policy for one (keys, P, layout, seed) cell.
// The crash window is the input size in per-processor ops (native) or
// machine steps (pram) — early enough that kills land mid-run.
func BuildSpec(keys []int, p int, l layout.Layout, seed uint64, pol Policy) Spec {
	window := int64(len(keys))
	spec := Spec{Keys: keys, P: p, Layout: l, Seed: seed, Revives: pol.Revives}
	switch {
	case pol.AllButOne:
		spec.Crashes = Massacre(p, window)
	case pol.Frac > 0:
		spec.Crashes = CrashQuorum(p, pol.Frac, window, seed+0x9e37)
	}
	if pol.StallStorm {
		spec.Stalls = StallStorm(p, 8, max64(window/16, 8), 64)
	}
	return spec
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// SweepOptions scales the chaos sweep.
type SweepOptions struct {
	N     int
	Ps    []int
	Seed  uint64
	Quick bool
	// TraceOut, when non-empty, captures the first failing run's
	// Perfetto postmortem trace at this path (Report.TracePath).
	TraceOut string
}

// Report is the sweep's JSON-serializable outcome.
type Report struct {
	N            int      `json:"n"`
	Seed         uint64   `json:"seed"`
	Runs         []Result `json:"runs"`
	Differential []string `json:"differential"`
	Failures     []string `json:"failures"`
	OK           bool     `json:"ok"`
	TracePath    string   `json:"trace,omitempty"`
}

// Sweep runs every adversary policy x P x layout cell plus one
// differential check per P, certifying each run. It only returns an
// error for harness-level failures; sort/certification failures are
// collected in Report.Failures.
func Sweep(o SweepOptions) (*Report, error) {
	if o.N == 0 {
		o.N = 4096
		if o.Quick {
			o.N = 1024
		}
	}
	if len(o.Ps) == 0 {
		o.Ps = []int{2, 4, 8}
		if o.Quick {
			o.Ps = []int{2, 8}
		}
	}
	rep := &Report{N: o.N, Seed: o.Seed}
	keys := randKeys(o.N, o.Seed)
	for _, pol := range Policies() {
		for _, p := range o.Ps {
			for _, l := range layout.All() {
				spec := BuildSpec(keys, p, l, o.Seed, pol)
				if rep.TracePath == "" {
					// Until a failure is captured, observe every run so
					// the first one to fail leaves its postmortem.
					spec.TraceOut = o.TraceOut
				}
				res, err := RunNative(spec)
				if err != nil {
					return rep, fmt.Errorf("policy %s p=%d layout=%v: %w", pol.Name, p, l, err)
				}
				res.Policy = pol.Name
				rep.Runs = append(rep.Runs, res)
				rep.TracePath = cmp.Or(rep.TracePath, res.TracePath)
				if !res.OK() {
					rep.Failures = append(rep.Failures, fmt.Sprintf(
						"policy %s p=%d layout=%v: sorted=%v certified=%v (max ops %d / bound %d) %s",
						pol.Name, p, l, res.Sorted, res.Certified, res.MaxOps, res.Bound, res.Error))
				}
			}
		}
	}
	// Cross-runtime differential, one seeded crash quorum per P.
	for _, p := range o.Ps {
		crashes := CrashQuorum(p, 0.5, int64(o.N), o.Seed+uint64(p))
		label := fmt.Sprintf("p=%d crashes=%d", p, len(crashes))
		if err := Differential(keys, p, o.Seed, crashes); err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("differential %s: %v", label, err))
		} else {
			rep.Differential = append(rep.Differential, label+": identical output on pram and all native layouts")
		}
	}
	// Resident-team battery per P and layout: crash-half striking
	// alternate jobs of a stream of sorts on one resident team.
	jobs := 4
	if o.Quick {
		jobs = 3
	}
	for _, p := range o.Ps {
		for _, l := range layout.All() {
			rrs, err := RunResident(ResidentSpec{
				N: o.N, P: p, Jobs: jobs, Layout: l,
				Seed: o.Seed + uint64(p)*101, Frac: 0.5,
			})
			if err != nil {
				return rep, fmt.Errorf("resident p=%d layout=%v: %w", p, l, err)
			}
			for j, res := range rrs {
				rep.Runs = append(rep.Runs, res)
				if !res.OK() {
					rep.Failures = append(rep.Failures, fmt.Sprintf(
						"resident p=%d layout=%v job=%d: sorted=%v certified=%v (max ops %d / bound %d) %s",
						p, l, j, res.Sorted, res.Certified, res.MaxOps, res.Bound, res.Error))
				}
			}
		}
	}
	rep.OK = len(rep.Failures) == 0
	return rep, nil
}

func randKeys(n int, seed uint64) []int {
	rng := xrand.New(seed)
	keys := make([]int, n)
	for i := range keys {
		keys[i] = rng.Intn(4 * n)
	}
	return keys
}
