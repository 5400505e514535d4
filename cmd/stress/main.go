// Command stress runs a randomized correctness campaign: random input
// sizes, worker counts, input orders, algorithm variants, schedules and
// crash patterns, each run verified against the true ranking. Runs are
// split between the deterministic simulator and the native goroutine
// runtime, so the campaign covers both the proof-level machine and the
// real-scheduler implementation. It is the long-running confidence
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
	o := options{}
	flag.DurationVar(&o.duration, "duration", 30*time.Second, "how long to run")
	flag.Uint64Var(&o.seed, "seed", 1, "campaign seed")
	flag.IntVar(&o.maxN, "maxn", 512, "largest input size")
	flag.BoolVar(&o.verbose, "v", false, "print every run")
	flag.StringVar(&o.listen, "listen", "", "serve live metrics/pprof on this address (e.g. :6060)")
	flag.Parse()

	failures := run(os.Stdout, o)
	if failures > 0 {
		os.Exit(1)
	}
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

	s, a, err := layout.New(layout.Flat, variants[variant], n, p)
	if err != nil {
		return label, err
	}
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

// oneNative runs one configuration on real goroutines with the
// observability plane installed and published, so a -listen endpoint
// always reports the most recent native run.
func (c *campaign) oneNative() (string, error) {
	n := 8 + c.rng.Intn(c.maxN-7)
	p := 1 + c.rng.Intn(min(16, n))
	input := harness.InputKind(c.rng.Intn(4))
	seed := c.rng.Uint64()
	keys := harness.MakeKeys(input, n, seed)

	variant := c.pickVariant(n, p)
	l := layout.All()[c.rng.Intn(len(layout.All()))]

	label := fmt.Sprintf("native variant=%s n=%d p=%d input=%s layout=%s seed=%d",
		variant, n, p, input, l, seed)

	s, alloc, err := layout.New(l, variants[variant], n, p)
	if err != nil {
		return label, err
	}

	ob := obs.New(obs.Config{RingCap: 1024, SnapshotEvery: 256})
	rt := native.New(native.Config{
		P: p, Mem: alloc.Size(), Seed: seed,
		Less: harness.LessFor(keys), Observer: ob,
	})
	ob.SetProgress(func() (int, int) { return s.LiveProgress(rt.Memory()) })
	obs.Publish(ob)
	s.Seed(rt.Memory())
	if _, err := rt.Run(s.Program()); err != nil {
		return label, err
	}
	return label, verifyRanks(keys, s.Places(rt.Memory()))
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
