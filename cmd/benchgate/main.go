// Command benchgate is the native fast path's regression gate. It
// times the real-goroutine sort across a layout × workers × size
// matrix (P ∈ {1, 4, 8, GOMAXPROCS}, N up to 1M), writes the
// measurements as JSON, and fails if throughput regressed more than
// the tolerance against the checked-in baseline (BENCH_native.json).
//
// Usage:
//
//	benchgate [-baseline BENCH_native.json] [-out FILE] [-write]
//	          [-quick] [-observed] [-runs 3] [-tolerance 0.10] [-serve]
//
// With -serve the gate targets the serving layer instead (pooled vs
// fresh sort throughput and sortd request throughput, baseline
// BENCH_serve.json — see serve.go). With -capacity it sweeps open-loop load for the SLO knee (baseline
// BENCH_capacity.json — see capacity.go), and with -qos it replays a
// two-class overload FIFO vs QoS-scheduled and gates the priority
// plane's latency win and starvation floor (baseline BENCH_qos.json —
// see qos.go). With -cluster it measures the distributed tier — the
// sample-sort coordinator over 1/2/3 admission-bucketed backends plus
// a backend-kill chaos leg — and gates the 3-backend scaling ratio and
// the kill leg's byte-identical output (baseline BENCH_cluster.json —
// see cluster.go). With -wire it compares binary vs JSON request
// throughput through the serving path and gates the binary codec's
// large-request speedup (baseline BENCH_wire.json — see wire.go).
//
// Three gates run, strongest applicable first; all act on geometric
// means over the whole matrix because individual wall-time cells are
// too noisy to gate at any useful tolerance (see compare):
//
//   - On the machine that produced the baseline (same GOOS/GOARCH,
//     GOMAXPROCS and CPU count), the geomean absolute throughput must
//     be within tolerance of the baseline's.
//   - On any machine, the geomean sharded/flat throughput ratio — the
//     speedup the contention-sharded layout exists to deliver, which
//     is machine-relative by construction — must be within tolerance
//     of the baseline's.
//   - With -observed, extra sharded cells run with the internal/obs
//     observability plane installed, and the geomean observed/
//     unobserved ratio must stay within tolerance of 1 — the observer
//     hook is sold as near-free, and this gate keeps it honest. The
//     ratio is measured within the current run, so it needs no
//     baseline cells and works on any host. A second -observed leg
//     boots the serving stack with the full request-trace plane on
//     (stage clocks, exemplars, SLO burn monitor) against a TraceOff
//     twin and holds the traced/plain request-throughput ratio to the
//     same tolerance (see observed.go).
//
// -quick runs a reduced matrix as a correctness smoke (sortedness is
// always verified) and reports, but never fails on, performance.
// -write regenerates the baseline file instead of gating against it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"wfsort"
)

// Host fingerprints the machine a report was measured on. Absolute
// throughput numbers are only comparable when fingerprints match.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"goversion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
}

func hostFingerprint() Host {
	return Host{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// comparable reports whether absolute numbers from the two hosts can
// be gated against each other. The Go version is informational only —
// a toolchain upgrade should surface as a (gated) perf change, not
// silently disable the gate.
func (h Host) comparable(o Host) bool {
	return h.GOOS == o.GOOS && h.GOARCH == o.GOARCH &&
		h.GOMAXPROCS == o.GOMAXPROCS && h.NumCPU == o.NumCPU
}

// Result is one cell of the matrix: median-of-runs throughput for a
// (layout, workers, size) combination.
type Result struct {
	Layout      string  `json:"layout"`
	P           int     `json:"p"`
	N           int     `json:"n"`
	Observed    bool    `json:"observed,omitempty"`
	ElemsPerSec float64 `json:"elems_per_sec"`
	Runs        int     `json:"runs"`
}

func (r Result) cell() string {
	obs := ""
	if r.Observed {
		obs = "+obs"
	}
	return fmt.Sprintf("%s%s/p%d/n%d", r.Layout, obs, r.P, r.N)
}

// Report is the BENCH_native.json schema.
type Report struct {
	Host    Host     `json:"host"`
	Results []Result `json:"results"`
}

// index keys a report's cells for comparison.
func (r *Report) index() map[string]Result {
	m := make(map[string]Result, len(r.Results))
	for _, res := range r.Results {
		m[res.cell()] = res
	}
	return m
}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	baseline := fs.String("baseline", "BENCH_native.json", "baseline report to gate against")
	out := fs.String("out", "", "also write the fresh report to this file")
	write := fs.Bool("write", false, "regenerate the baseline file instead of gating")
	quick := fs.Bool("quick", false, "reduced matrix; verify sortedness but never fail on perf")
	observed := fs.Bool("observed", false, "add observer-installed cells and gate the observer overhead")
	runs := fs.Int("runs", 3, "timed runs per cell (best is kept)")
	tol := fs.Float64("tolerance", 0.10, "allowed fractional throughput regression")
	serve := fs.Bool("serve", false, "gate the serving layer (pooled vs fresh, sortd req/s) instead of the native matrix")
	capacity := fs.Bool("capacity", false, "gate the serving stack's capacity-curve knee (open-loop loadgen sweep vs an SLO) instead of the native matrix")
	qosMode := fs.Bool("qos", false, "gate the QoS plane (priority scheduling vs FIFO on a two-class overload) instead of the native matrix")
	clusterMode := fs.Bool("cluster", false, "gate the distributed sort tier (coordinator scaling over 1/2/3 backends + kill leg) instead of the native matrix")
	wireMode := fs.Bool("wire", false, "gate the binary wire codec (binary vs JSON request throughput on the serving path) instead of the native matrix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	modes := 0
	for _, m := range []bool{*serve, *capacity, *qosMode, *clusterMode, *wireMode} {
		if m {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-serve, -capacity, -qos, -cluster and -wire are mutually exclusive")
	}
	if *serve {
		if *baseline == "BENCH_native.json" {
			*baseline = "BENCH_serve.json"
		}
		return runServe(w, *baseline, *out, *write, *quick, *runs, *tol)
	}
	if *capacity {
		if *baseline == "BENCH_native.json" {
			*baseline = "BENCH_capacity.json"
		}
		return runCapacity(w, *baseline, *out, *write, *quick, *tol)
	}
	if *qosMode {
		if *baseline == "BENCH_native.json" {
			*baseline = "BENCH_qos.json"
		}
		return runQoS(w, *baseline, *out, *write, *quick)
	}
	if *clusterMode {
		if *baseline == "BENCH_native.json" {
			*baseline = "BENCH_cluster.json"
		}
		return runCluster(w, *baseline, *out, *write, *quick, *tol)
	}
	if *wireMode {
		if *baseline == "BENCH_native.json" {
			*baseline = "BENCH_wire.json"
		}
		return runWire(w, *baseline, *out, *write, *quick, *runs, *tol)
	}

	// Read the baseline before measuring anything: a mistyped path
	// should fail in milliseconds, not after the whole matrix ran.
	var base *Report
	if !*write {
		b, err := readReport(*baseline)
		if err != nil {
			if !(*quick && os.IsNotExist(err)) {
				return fmt.Errorf("reading baseline: %w (run with -write to create it)", err)
			}
		} else {
			base = b
		}
	}

	rep, err := measureMatrix(w, matrix(*quick, *observed), *runs)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			return err
		}
	}
	if *write {
		if err := writeReport(*baseline, rep); err != nil {
			return err
		}
		fmt.Fprintf(w, "baseline written to %s (%d cells)\n", *baseline, len(rep.Results))
		return nil
	}
	if base == nil && !*observed {
		fmt.Fprintf(w, "no baseline at %s; smoke passed (sortedness verified)\n", *baseline)
		return nil
	}
	var failures []string
	if base != nil {
		failures = compare(base, rep, *tol)
	}
	if *observed {
		// The serving-layer leg of the observer gate: the full trace
		// plane (stage clocks, exemplars, burn monitor) vs TraceOff,
		// gated on the in-run ratio like the native observer cells.
		obsFailures, err := runObservedServe(w, *quick, *runs, *tol)
		if err != nil {
			return err
		}
		failures = append(failures, obsFailures...)
	}
	for _, f := range failures {
		fmt.Fprintln(w, "REGRESSION:", f)
	}
	if *quick {
		fmt.Fprintf(w, "smoke passed: %d cells sorted correctly (%d perf deviations reported, not gated)\n",
			len(rep.Results), len(failures))
		return nil
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d gate(s) regressed beyond %.0f%% against baseline %s", len(failures), *tol*100, *baseline)
	}
	fmt.Fprintf(w, "gate passed: %d cells, geomeans within %.0f%% of baseline\n", len(rep.Results), *tol*100)
	return nil
}

// cellSpec names one measurement to take.
type cellSpec struct {
	layout   wfsort.Layout
	p, n     int
	observed bool
}

// matrix lists the cells to measure. The full matrix is every layout
// at P ∈ {1, 4, 8, GOMAXPROCS} and N ∈ {64Ki, 256Ki, 1Mi}; quick mode
// keeps one small and one medium size at two worker counts for the
// sharded and flat layouts only. With observed, every sharded cell is
// doubled with an observer-installed twin for the overhead gate.
func matrix(quick, observed bool) []cellSpec {
	workers := []int{1, 4, 8}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 && g != 8 {
		workers = append(workers, g)
	}
	sizes := []int{1 << 16, 1 << 18, 1 << 20}
	layouts := wfsort.Layouts()
	if quick {
		workers = []int{4, runtime.GOMAXPROCS(0)}
		if workers[0] == workers[1] {
			workers = workers[:1]
		}
		sizes = []int{1 << 14, 1 << 16}
		layouts = []wfsort.Layout{wfsort.LayoutSharded, wfsort.LayoutFlat}
	}
	var cells []cellSpec
	for _, l := range layouts {
		for _, p := range workers {
			for _, n := range sizes {
				cells = append(cells, cellSpec{l, p, n, false})
				if observed && l == wfsort.LayoutSharded {
					cells = append(cells, cellSpec{l, p, n, true})
				}
			}
		}
	}
	return cells
}

// measureMatrix times every cell and assembles the report. Sortedness
// of every run's output is verified — a wrong sort is an error no
// matter the mode.
func measureMatrix(w io.Writer, cells []cellSpec, runs int) (*Report, error) {
	if runs < 1 {
		runs = 1
	}
	rep := &Report{Host: hostFingerprint()}
	for _, c := range cells {
		r, err := measure(c, runs)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%-22s %12.0f elems/s\n", r.cell(), r.ElemsPerSec)
		rep.Results = append(rep.Results, r)
	}
	return rep, nil
}

// measure times one cell: the median over runs timed wall-clock sorts
// of a fixed pseudo-random permutation, after one untimed warmup. The
// garbage collector is flushed before each timed run so a previous
// cell's allocation debt cannot be charged to this one; the median
// (rather than the minimum) keeps a single lucky run in the baseline
// from making every later gate run look like a regression.
func measure(c cellSpec, runs int) (Result, error) {
	base := rand.New(rand.NewSource(int64(c.n) + int64(c.p))).Perm(c.n)
	data := make([]int, c.n)
	times := make([]time.Duration, 0, runs)
	for r := 0; r <= runs; r++ {
		copy(data, base)
		runtime.GC()
		opts := []wfsort.Option{wfsort.WithWorkers(c.p), wfsort.WithLayout(c.layout)}
		if c.observed {
			// One observer per run: like the runtime, an Observer
			// drives at most one sort.
			opts = append(opts, wfsort.WithObserver(wfsort.NewObserver()))
		}
		start := time.Now()
		err := wfsort.Sort(data, opts...)
		elapsed := time.Since(start)
		if err != nil {
			return Result{}, fmt.Errorf("%s/p%d/n%d: %w", c.layout, c.p, c.n, err)
		}
		if !sort.IntsAreSorted(data) {
			return Result{}, fmt.Errorf("%s/p%d/n%d: output not sorted", c.layout, c.p, c.n)
		}
		if r > 0 { // run 0 is the warmup
			times = append(times, elapsed)
		}
	}
	return Result{
		Layout:      c.layout.String(),
		P:           c.p,
		N:           c.n,
		Observed:    c.observed,
		ElemsPerSec: float64(c.n) / median(times).Seconds(),
		Runs:        runs,
	}, nil
}

// median returns the middle element (lower-middle for even counts) of
// the measured durations.
func median(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

// compare gates cur against base and returns one message per failed
// gate. Single cells are far too noisy to gate on directly (wall time
// on a loaded machine jitters well past any useful tolerance), so
// both gates act on the geometric mean of the per-cell change across
// the whole matrix, where independent per-cell noise averages out:
//
//   - absolute throughput (only between comparable hosts): the
//     geomean of cur/base across matching cells must not fall below
//     1 − tol;
//   - the sharded/flat speedup (any host): the geomean of the
//     per-(P, N) ratio change must not fall below 1 − tol;
//   - the observer overhead (any host, only when observed cells were
//     measured): the geomean observed/unobserved throughput ratio,
//     taken within cur alone, must not fall below 1 − tol.
//
// Failure messages name the worst cell as the place to start looking.
func compare(base, cur *Report, tol float64) []string {
	var failures []string
	bi, ci := base.index(), cur.index()

	if base.Host.comparable(cur.Host) {
		var logSum float64
		cells := 0
		worst, worstCell := 1.0, ""
		for _, c := range cur.Results {
			b, ok := bi[c.cell()]
			if !ok || b.ElemsPerSec <= 0 || c.ElemsPerSec <= 0 {
				continue
			}
			change := c.ElemsPerSec / b.ElemsPerSec
			logSum += math.Log(change)
			cells++
			if change < worst {
				worst, worstCell = change, c.cell()
			}
		}
		if cells > 0 {
			if g := math.Exp(logSum / float64(cells)); g < 1-tol {
				failures = append(failures, fmt.Sprintf(
					"throughput: geomean %.1f%% below baseline over %d cells (worst %s at %.1f%%)",
					100*(1-g), cells, worstCell, 100*(1-worst)))
			}
		}
	}

	var logSum float64
	cells := 0
	worst, worstCell := 1.0, ""
	for _, c := range cur.Results {
		if c.Layout != wfsort.LayoutSharded.String() || c.Observed {
			continue
		}
		flatCell := Result{Layout: wfsort.LayoutFlat.String(), P: c.P, N: c.N}.cell()
		cf, okCF := ci[flatCell]
		bs, okBS := bi[c.cell()]
		bf, okBF := bi[flatCell]
		if !okCF || !okBS || !okBF || cf.ElemsPerSec <= 0 || bf.ElemsPerSec <= 0 {
			continue
		}
		curRatio := c.ElemsPerSec / cf.ElemsPerSec
		baseRatio := bs.ElemsPerSec / bf.ElemsPerSec
		change := curRatio / baseRatio
		logSum += math.Log(change)
		cells++
		if change < worst {
			worst, worstCell = change, fmt.Sprintf("p%d/n%d (%.2fx vs %.2fx)", c.P, c.N, curRatio, baseRatio)
		}
	}
	if cells > 0 {
		if g := math.Exp(logSum / float64(cells)); g < 1-tol {
			failures = append(failures, fmt.Sprintf(
				"ratio sharded/flat: geomean %.1f%% below baseline over %d cells (worst %s)",
				100*(1-g), cells, worstCell))
		}
	}

	logSum, cells = 0, 0
	worst, worstCell = 1.0, ""
	for _, c := range cur.Results {
		if !c.Observed {
			continue
		}
		plain := Result{Layout: c.Layout, P: c.P, N: c.N}.cell()
		cp, ok := ci[plain]
		if !ok || cp.ElemsPerSec <= 0 {
			continue
		}
		change := c.ElemsPerSec / cp.ElemsPerSec
		logSum += math.Log(change)
		cells++
		if change < worst {
			worst, worstCell = change, fmt.Sprintf("p%d/n%d (%.1f%% overhead)", c.P, c.N, 100*(1-change))
		}
	}
	if cells > 0 {
		if g := math.Exp(logSum / float64(cells)); g < 1-tol {
			failures = append(failures, fmt.Sprintf(
				"observer overhead: geomean %.1f%% throughput loss with the observer installed over %d cells (worst %s)",
				100*(1-g), cells, worstCell))
		}
	}
	return failures
}

func readReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeReport(path string, r *Report) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
