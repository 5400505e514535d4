// Command trace visualizes one sort. On the simulator (the default
// runtime) it runs the paper's algorithm chosen by -variant and renders
// the contention-over-time profile as an ASCII chart or CSV — the
// clearest view of the paper's §3 headline: the deterministic variant
// opens with a spike of height P while the randomized variant stays
// flat around sqrt(P). With -runtime native it runs the native sort,
// the block-leaf kernel, on real goroutines under the internal/obs
// observability plane and emits a Chrome/Perfetto trace (one track per
// processor incarnation, phase spans, CAS-failure and fault instants)
// that loads directly in ui.perfetto.dev; -perfetto exports the
// simulator series in the same format, so both runtimes render in the
// same viewer.
//
// Usage:
//
//	trace [-n 1024] [-p 0] [-variant det|rand|lowcont] [-seed 1]
//	      [-runtime sim|native]
//	      [-metric contention|active] [-width 100] [-height 12]
//	      [-csv] [-perfetto] [-out FILE]
//
// -variant applies to the simulator only. -p 0 means P = N on the
// simulator (the contention-critical regime) and P = GOMAXPROCS on the
// native runtime.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"wfsort/internal/harness"
	"wfsort/internal/layout"
	"wfsort/internal/native"
	"wfsort/internal/obs"
	"wfsort/internal/pram"
	"wfsort/internal/trace"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	n := fs.Int("n", 1024, "input size")
	p := fs.Int("p", 0, "processors (0 = N on sim, GOMAXPROCS on native)")
	variant := fs.String("variant", "lowcont", "simulated algorithm: det, rand or lowcont")
	seed := fs.Uint64("seed", 1, "seed")
	rt := fs.String("runtime", "sim", "sim or native")
	metric := fs.String("metric", "contention", "chart metric: contention or active")
	width := fs.Int("width", 100, "chart width")
	height := fs.Int("height", 12, "chart height")
	csv := fs.Bool("csv", false, "emit CSV instead of a chart (sim only)")
	perfetto := fs.Bool("perfetto", false, "emit Perfetto JSON instead of a chart (sim only)")
	regions := fs.Bool("regions", false, "append a per-region contention profile (sim only)")
	out := fs.String("out", "", "write Perfetto JSON to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *rt {
	case "sim":
		return runSim(w, *n, *p, *variant, *seed, *metric, *width, *height, *csv, *perfetto, *regions, *out)
	case "native":
		return runNative(w, *n, *p, *seed, *out)
	default:
		return fmt.Errorf("unknown runtime %q (valid: sim, native)", *rt)
	}
}

func runSim(w io.Writer, n, p int, variant string, seed uint64, metric string, width, height int, csv, perfetto, regions bool, out string) error {
	if p <= 0 {
		p = n
	}
	keys := harness.MakeKeys(harness.InputRandom, n, seed)

	v, ok := variants[variant]
	if !ok {
		return fmt.Errorf("unknown variant %q", variant)
	}
	s, a := layout.Sim(v, n, p)

	rec := trace.NewRecorder()
	profile := trace.NewRegionProfile(a.Regions())
	m := pram.New(pram.Config{
		P: p, Mem: a.Size(), Seed: seed,
		Less:     harness.LessFor(keys),
		Observer: trace.Multi(rec.Observer(), profile.Observer()),
	})
	s.Seed(m.Memory())
	met, err := m.Run(s.Program())
	if err != nil {
		return err
	}
	if csv {
		return rec.WriteCSV(w)
	}
	if perfetto {
		return writeTrace(w, out, obs.NewTrace().AddSimSamples(rec.Samples()), func() {
			fmt.Fprintf(w, "%s sort (sim), N=%d P=%d: steps=%d maxcontention=%d\n",
				variant, n, p, met.Steps, met.MaxContention)
		})
	}
	fmt.Fprintf(w, "%s sort, N=%d P=%d: steps=%d maxcontention=%d\n\n",
		variant, n, p, met.Steps, met.MaxContention)
	if err := rec.Chart(w, metric, width, height); err != nil {
		return err
	}
	if regions {
		fmt.Fprintln(w)
		return profile.WriteTable(w)
	}
	return nil
}

// runNative executes the native sort on real goroutines under the
// observability plane and exports the Perfetto trace.
func runNative(w io.Writer, n, p int, seed uint64, out string) error {
	if p <= 0 {
		p = min(runtime.GOMAXPROCS(0), n)
	}
	keys := harness.MakeKeys(harness.InputRandom, n, seed)
	s, alloc := layout.Native(n, p)

	ob := obs.New(obs.Config{})
	rt := native.New(native.Config{
		P: p, Mem: alloc.Size(), Seed: seed,
		Less: harness.LessFor(keys), CountOps: true, Observer: ob,
	})
	s.Seed(rt.Memory())
	met, err := rt.Run(s.Program())
	if err != nil {
		return err
	}
	if !ranksSorted(keys, s.Places(rt.Memory())) {
		return fmt.Errorf("native run output is not sorted")
	}
	return writeTrace(w, out, obs.NewTrace().AddObserver(ob), func() {
		fmt.Fprintf(w, "kernel sort (native), N=%d P=%d: elapsed=%v\n%s\n",
			n, p, rt.Elapsed, met)
	})
}

// variants maps the -variant names to the simulated algorithms.
var variants = map[string]layout.Variant{
	"det": layout.Deterministic, "rand": layout.Randomized, "lowcont": layout.LowContention,
}

// writeTrace emits the Perfetto JSON to out (printing the summary to w)
// or, with no -out, emits only the JSON on w so it can be piped.
func writeTrace(w io.Writer, out string, t *obs.Trace, summary func()) error {
	if out == "" {
		return t.Write(w)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.Write(f); err != nil {
		return err
	}
	summary()
	fmt.Fprintf(w, "perfetto trace written to %s — open it at https://ui.perfetto.dev\n", out)
	return nil
}

// ranksSorted verifies the places form a permutation that sorts keys.
func ranksSorted(keys []int, places []int) bool {
	out := make([]int, len(keys))
	seen := make([]bool, len(keys))
	for i, r := range places {
		if r < 1 || r > len(keys) || seen[r-1] {
			return false
		}
		seen[r-1] = true
		out[r-1] = keys[i]
	}
	return sort.IntsAreSorted(out)
}
