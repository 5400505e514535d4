// Command stress runs a randomized correctness campaign: random input
// sizes, worker counts, input orders, algorithm variants, schedules and
// crash patterns, each run verified against the true ranking. Runs are
// split between the deterministic simulator, which runs the paper's
// algorithms, and the native goroutine runtime, which runs the
// block-leaf kernel, so the campaign covers both the proof-level machine
// and the real-scheduler implementation. It is the long-running confidence
// builder behind the test suite's fixed cases.
//
// Usage:
//
//	stress [-duration 30s] [-seed 1] [-maxn 512] [-v] [-listen ADDR]
//
// -listen serves the wait-free observability plane while the campaign
// runs: /metrics is the current native run's live snapshot (per-
// processor op ordinals, sized/placed progress, watchdog violations),
// /debug/vars is expvar and /debug/pprof/ the usual profiles.
//
// The campaign prints one line per failure (inputs and configuration,
// enough to reproduce) and a summary at the end; the exit status is
// non-zero if any run failed.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"wfsort/internal/harness"
	"wfsort/internal/layout"
	"wfsort/internal/native"
	"wfsort/internal/obs"
	"wfsort/internal/pram"
	"wfsort/internal/xrand"
)

func main() {
	os.Exit(stress(os.Args[1:], os.Stdout, os.Stderr))
}

// stress parses args and runs the campaign. It returns the exit status:
// 2 for bad flags, 1 if any run failed.
func stress(args []string, stdout, stderr io.Writer) int {
	o := options{}
	fs := flag.NewFlagSet("stress", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.DurationVar(&o.duration, "duration", 30*time.Second, "how long to run")
	fs.Uint64Var(&o.seed, "seed", 1, "campaign seed")
	fs.IntVar(&o.maxN, "maxn", 512, "largest input size (at least 8)")
	fs.BoolVar(&o.verbose, "v", false, "print every run")
	fs.StringVar(&o.listen, "listen", "", "serve live metrics/pprof on this address (e.g. :6060)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	// The native leg draws sizes from [8, maxn].
	if o.maxN < 8 || o.duration <= 0 {
		fmt.Fprintf(stderr, "stress: need -maxn >= 8 and -duration > 0, got -maxn %d -duration %v\n", o.maxN, o.duration)
		return 2
	}
	if run(stdout, o) > 0 {
		return 1
	}
	return 0
}

type options struct {
	duration time.Duration
	seed     uint64
	maxN     int
	verbose  bool
	listen   string
}

type campaign struct {
	rng     *xrand.Rand
	maxN    int
	runs    int
	byLabel map[string]int
}

func run(w io.Writer, o options) int {
	if o.listen != "" {
		ln, err := net.Listen("tcp", o.listen)
		if err != nil {
			fmt.Fprintf(w, "stress: listen: %v\n", err)
			return 1
		}
		defer ln.Close()
		fmt.Fprintf(w, "stress: live metrics on http://%s/metrics\n", ln.Addr())
		go obs.Serve(ln)
	}
	c := &campaign{rng: xrand.New(o.seed), maxN: o.maxN, byLabel: map[string]int{}}
	deadline := time.Now().Add(o.duration)
	failures := 0
	for time.Now().Before(deadline) {
		label, err := c.one()
		c.runs++
		c.byLabel[label]++
		if err != nil {
			failures++
			fmt.Fprintf(w, "FAIL %s: %v\n", label, err)
		} else if o.verbose {
			fmt.Fprintf(w, "ok   %s\n", label)
		}
	}
	fmt.Fprintf(w, "stress: %d runs, %d failures\n", c.runs, failures)
	for label, n := range c.byLabel {
		fmt.Fprintf(w, "  %6d  %s\n", n, label)
	}
	return failures
}

// one executes a single random configuration and verifies it. Roughly a
// quarter of the runs go to the native runtime, the rest to the
// simulator with its hostile schedules.
func (c *campaign) one() (string, error) {
	if c.rng.Intn(4) == 0 {
		return c.oneNative()
	}
	return c.oneSim()
}

func (c *campaign) oneSim() (string, error) {
	n := 1 + c.rng.Intn(c.maxN)
	p := 1 + c.rng.Intn(n)
	input := harness.InputKind(c.rng.Intn(4))
	seed := c.rng.Uint64()
	keys := harness.MakeKeys(input, n, seed)

	variant := c.pickVariant(n, p)

	sched, schedName := c.randomSchedule(p, seed)
	label := fmt.Sprintf("sim variant=%s n=%d p=%d input=%s sched=%s seed=%d",
		variant, n, p, input, schedName, seed)

	s, a := layout.Sim(variants[variant], n, p)
	m := pram.New(pram.Config{
		P: p, Mem: a.Size(), Seed: seed, Sched: sched,
		Less: harness.LessFor(keys),
	})
	s.Seed(m.Memory())
	if _, err := m.Run(s.Program()); err != nil {
		return label, err
	}
	return label, verifyRanks(keys, s.Places(m.Memory()))
}

// variants maps the campaign's variant names to the algorithms.
var variants = map[string]layout.Variant{
	"det": layout.Deterministic, "rand": layout.Randomized, "lowcont": layout.LowContention,
}

// pickVariant draws a variant name, falling back to "rand" below the
// §3 sort's regime so labels name what actually ran.
func (c *campaign) pickVariant(n, p int) string {
	variant := [...]string{"det", "rand", "lowcont"}[c.rng.Intn(3)]
	if variant == "lowcont" && (p < 4 || n < p) {
		variant = "rand"
	}
	return variant
}

// oneNative runs the kernel on real goroutines with the observability
// plane installed and published, so a -listen endpoint always reports
// the most recent native run.
func (c *campaign) oneNative() (string, error) {
	n := 8 + c.rng.Intn(c.maxN-7)
	p := 1 + c.rng.Intn(min(16, n))
	input := harness.InputKind(c.rng.Intn(4))
	seed := c.rng.Uint64()
	keys := harness.MakeKeys(input, n, seed)

	label := fmt.Sprintf("native kernel n=%d p=%d input=%s seed=%d", n, p, input, seed)

	s, alloc := layout.Native(n, p)

	mem := make([]native.Word, alloc.Size())
	ob := obs.New(obs.Config{RingCap: 1024, SnapshotEvery: 256})
	ob.SetProgress(func() (int, int) { return s.LiveProgress(mem) })
	obs.Publish(ob)
	s.Seed(mem)
	team := native.NewTeam(p, false)
	defer team.Close()
	if _, err := team.Run(native.TeamJob{
		Graph: s.Graph(), Mem: mem, Seed: seed,
		Less: harness.LessFor(keys), Observer: ob,
	}); err != nil {
		return label, err
	}
	return label, verifyRanks(keys, s.Places(mem))
}

// verifyRanks checks the claimed 1-based ranks against the true ones.
func verifyRanks(keys []int, got []int) error {
	want := harness.WantRanks(keys)
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("element %d placed %d, want %d", i+1, got[i], want[i])
		}
	}
	return nil
}

// randomSchedule picks one of the hostile schedules (or none).
func (c *campaign) randomSchedule(p int, seed uint64) (pram.Scheduler, string) {
	switch c.rng.Intn(5) {
	case 0:
		return nil, "synchronous"
	case 1:
		return pram.RandomSubset(0.1 + 0.8*c.rng.Float64()), "randomsubset"
	case 2:
		return pram.RoundRobin(1 + c.rng.Intn(3)), "roundrobin"
	case 3:
		crashes := pram.RandomCrashes(p, 0.3+0.5*c.rng.Float64(), 500, seed)
		kept := crashes[:0]
		for _, cr := range crashes {
			if cr.PID != 0 {
				kept = append(kept, cr)
			}
		}
		return pram.WithCrashes(pram.Synchronous(), kept), "crashes"
	default:
		return pram.NewContentionAdversary(), "adversary"
	}
}
