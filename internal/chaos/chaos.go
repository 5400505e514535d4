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
//     internal/pram and internal/native and require both sorted outputs
//     to equal an independent stable sort (SortedRef).
//
// Every native run lays out its sort with layout.Native and runs it on
// a native.Team, as every wfsort sort does, so the runs certify the
// block-leaf kernel on the driver that serves it; the simulator runs
// the paper's graph (layout.Sim). cmd/chaos sweeps adversary policies
// x P and emits a JSON report; the CI chaos-smoke job runs a small
// sweep under -race.
package chaos

import (
	"cmp"
	"fmt"
	"math/bits"
	"os"
	"sort"

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
// reference machine (N in {1k..64k}, P in {2..16}, every policy):
// observed per-processor maxima — including lone survivors
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
	Policy string `json:"policy"`
	N      int    `json:"n"`
	P      int    `json:"p"`
	Seed   uint64 `json:"seed"`
	Sorted bool   `json:"sorted"`
	// Scheduled counts the kills the fault plan scheduled; Killed
	// counts the kills that landed.
	Scheduled int     `json:"scheduled_kills"`
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

// RunNative executes one spec on a one-job native.Team and certifies
// it. The returned error covers harness-level failures (a panic
// escaping the program); sort or certification failures are reported
// in the Result so sweeps keep going. With Spec.TraceOut set, a failing
// run additionally leaves a Perfetto postmortem trace behind.
func RunNative(spec Spec) (res Result, err error) {
	res = Result{N: len(spec.Keys), P: spec.P, Seed: spec.Seed, Scheduled: len(spec.Crashes)}
	var observer *obs.Observer
	if spec.TraceOut != "" {
		observer = obs.New(obs.Config{})
	}
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
	team := native.NewTeam(spec.P, true)
	defer team.Close()
	err = runJob(team, &res, spec.Keys, native.TeamJob{
		Seed: spec.Seed, Adversary: adversaryOrNil(spec.plan()), Observer: observer,
	})
	return res, err
}

// runJob lays out the kernel for keys, runs it on team under job's
// seed, adversary and observer, and certifies the run into res: sorted
// output, every completion predicate of its phase graph satisfied, and
// every worker's operation count (TeamRun.OpsPerProc) within Bound.
func runJob(team *native.Team, res *Result, keys []int, job native.TeamJob) error {
	k, a := layout.Native(len(keys), team.P())
	mem := make([]model.Word, a.Size())
	k.Seed(mem)
	job.Graph, job.Mem, job.Less = k.Graph(), mem, lessFor(keys)
	run := team.Start(job)
	met, err := run.Wait()
	res.ElapsedMS = float64(run.Elapsed.Microseconds()) / 1000
	if err != nil {
		res.Error = err.Error()
		return err
	}
	res.Killed = met.Killed
	res.Respawns = met.Respawns
	res.Stalls = met.InjectedStalls
	res.Survivors = res.P - met.Killed + met.Respawns
	res.Sized, res.Placed = k.Progress(mem)

	out, perr := outputOf(keys, k.Places(mem))
	res.Sorted = perr == nil && equalInts(out, SortedRef(keys))
	if perr != nil {
		res.Error = perr.Error()
	}
	if name := k.Graph().FirstUndone(mem); name != "" && res.Error == "" {
		res.Error = fmt.Sprintf("phase %q predicate unsatisfied after completion", name)
		res.Sorted = false
	}

	res.Bound = Bound(len(keys))
	for _, o := range run.OpsPerProc() {
		res.MaxOps = max(res.MaxOps, o)
	}
	res.Certified = res.MaxOps <= res.Bound
	return nil
}

// ResidentSpec scales the resident-team chaos battery: Jobs sorts of
// N keys run one after another on one resident team of P workers, and
// every even-numbered job is struck by a seeded crash quorum killing
// roughly Frac of the workers (pid 0 spared, no revival) within their
// first killWindow operations.
type ResidentSpec struct {
	N, P, Jobs int
	Seed       uint64
	Frac       float64
}

// killWindow bounds the op ordinals of every scheduled native kill, so
// every kill lands. A worker that starts after its peers finished a
// kernel sort only reads done marks on its way out: 4 operations up to
// N = 64, 6 up to 256, 10 up to 512 and 22-58 at 1024-4096. A kill
// drawn from a window of N ordinals therefore often never lands on a
// loaded host, and the struck run certifies nothing. Every worker
// executes at least 4 operations at any N, so ordinals 0-3 always land.
const killWindow = 4

// RunResident is the serving-regime counterpart of RunNative: it
// certifies wait-freedom across job boundaries on one resident team,
// not just within one sort. Each job is certified on its own, as
// RunNative certifies its one job. The struck jobs prove the survivors
// finish without the dead; the faultless jobs between them prove the
// team is back at full strength without a goroutine ever respawning,
// because a kill unwinds only the graph, not the worker.
func RunResident(spec ResidentSpec) ([]Result, error) {
	if spec.Jobs < 1 {
		spec.Jobs = 1
	}
	team := native.NewTeam(spec.P, true)
	defer team.Close()

	results := make([]Result, 0, spec.Jobs)
	for j := 0; j < spec.Jobs; j++ {
		keys := randKeys(spec.N, spec.Seed+uint64(j)*0x9e37)
		job := native.TeamJob{Seed: spec.Seed + uint64(j)}
		res := Result{Policy: "resident-crash-half", N: spec.N, P: spec.P, Seed: job.Seed}
		if j%2 == 0 && spec.Frac > 0 {
			crashes := CrashQuorum(spec.P, spec.Frac, killWindow, spec.Seed+uint64(13*j+7))
			if len(crashes) > 0 {
				job.Adversary = native.NewPlan().AddCrashes(crashes)
			}
			res.Scheduled = len(crashes)
		}
		err := runJob(team, &res, keys, job)
		results = append(results, res)
		if err != nil {
			return results, err
		}
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
// Step read as a machine step) with the paper's randomized pivot tree
// and returns the sorted output.
func RunPram(spec Spec) ([]int, *model.Metrics, error) {
	s, a := layout.Sim(layout.Randomized, len(spec.Keys), spec.P)
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
// through the native runtime, and errors unless both sorted outputs
// equal the stable-sorted reference, the native run certifies and every
// kill it scheduled landed — the cross-runtime consistency check behind
// the repo's central claim. It returns the native run's result.
func Differential(keys []int, p int, seed uint64, crashes []model.Crash) (Result, error) {
	ref := SortedRef(keys)
	spec := Spec{Keys: keys, P: p, Seed: seed, Crashes: crashes}

	simOut, _, err := RunPram(spec)
	if err != nil {
		return Result{}, fmt.Errorf("pram run: %w", err)
	}
	if !equalInts(simOut, ref) {
		return Result{}, fmt.Errorf("pram output differs from the stable-sorted reference")
	}
	res, err := RunNative(spec)
	switch {
	case err != nil:
		return res, fmt.Errorf("native run: %w", err)
	case !res.Sorted:
		return res, fmt.Errorf("native output differs from the reference (%s)", res.Error)
	case !res.Certified:
		return res, fmt.Errorf("native run exceeded the op ceiling: max ops %d > bound %d (survivors %d)",
			res.MaxOps, res.Bound, res.Survivors)
	case res.Killed != res.Scheduled:
		return res, fmt.Errorf("native run landed %d of %d scheduled kills", res.Killed, res.Scheduled)
	}
	return res, nil
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

// BuildSpec instantiates a policy for one (keys, P, seed) cell of the
// native sweep. Kills fall within each worker's first killWindow
// operations, so every scheduled kill lands; stalls spread over a
// window of the input size in per-worker operations.
func BuildSpec(keys []int, p int, seed uint64, pol Policy) Spec {
	spec := Spec{Keys: keys, P: p, Seed: seed, Revives: pol.Revives}
	switch {
	case pol.AllButOne:
		spec.Crashes = Massacre(p, killWindow)
	case pol.Frac > 0:
		spec.Crashes = CrashQuorum(p, pol.Frac, killWindow, seed+0x9e37)
	}
	if pol.StallStorm {
		spec.Stalls = StallStorm(p, 8, max(int64(len(keys))/16, 8), 64)
	}
	return spec
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

// Sweep runs every adversary policy x P cell, one differential check
// per P and the resident-team battery per P, certifying each run. A
// run fails when it does not sort or certify, or when the kills that
// landed differ from the kills its plan scheduled. Sweep only returns
// an error for harness-level failures; run failures are collected in
// Report.Failures.
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
	record := func(label string, res Result) {
		rep.Runs = append(rep.Runs, res)
		if !res.OK() || res.Killed != res.Scheduled {
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"%s: sorted=%v certified=%v (max ops %d / bound %d) kills %d/%d scheduled %s",
				label, res.Sorted, res.Certified, res.MaxOps, res.Bound, res.Killed, res.Scheduled, res.Error))
		}
	}
	keys := randKeys(o.N, o.Seed)
	for _, pol := range Policies() {
		for _, p := range o.Ps {
			spec := BuildSpec(keys, p, o.Seed, pol)
			if rep.TracePath == "" {
				// Until a failure is captured, observe every run so
				// the first one to fail leaves its postmortem.
				spec.TraceOut = o.TraceOut
			}
			res, err := RunNative(spec)
			if err != nil {
				return rep, fmt.Errorf("policy %s p=%d: %w", pol.Name, p, err)
			}
			res.Policy = pol.Name
			rep.TracePath = cmp.Or(rep.TracePath, res.TracePath)
			record(fmt.Sprintf("policy %s p=%d", pol.Name, p), res)
		}
	}
	// Cross-runtime differential, one seeded crash quorum per P. As in
	// BuildSpec, kills fall within each victim's first killWindow
	// operations, so every one lands on the native run.
	for _, p := range o.Ps {
		crashes := CrashQuorum(p, 0.5, killWindow, o.Seed+uint64(p))
		res, err := Differential(keys, p, o.Seed, crashes)
		label := fmt.Sprintf("p=%d kills %d/%d landed", p, res.Killed, len(crashes))
		if err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("differential %s: %v", label, err))
		} else {
			rep.Differential = append(rep.Differential, label+": identical output on pram and native")
		}
	}
	// Resident-team battery per P: crash-half striking alternate jobs
	// of a stream of sorts on one resident team.
	jobs := 4
	if o.Quick {
		jobs = 3
	}
	for _, p := range o.Ps {
		rrs, err := RunResident(ResidentSpec{
			N: o.N, P: p, Jobs: jobs,
			Seed: o.Seed + uint64(p)*101, Frac: 0.5,
		})
		if err != nil {
			return rep, fmt.Errorf("resident p=%d: %w", p, err)
		}
		for j, res := range rrs {
			record(fmt.Sprintf("resident p=%d job=%d", p, j), res)
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
