// Command benchgate holds the native stack's performance claims to
// their floors. It runs one fixed table of cells (see table). Each cell
// pairs a subject with its floor on the same work: the kernel with
// slices.Sort on the same keys, the observed sort with the plain one,
// the traced server with its TraceOff twin, pooled sorts with fresh
// ones, a server that crash-stops half of every sort's workers with a
// faultless one, binary requests with JSON ones, three cluster backends
// with one, and the QoS scheduler with FIFO. The two sides of a cell
// run alternately within one run, each checks its own output, and every
// gate bounds median(subject cost) / median(floor cost), so no verdict
// depends on the host.
//
// Usage:
//
//	benchgate [-baseline BENCH_gate.json] [-out FILE] [-write]
//	          [-quick] [-runs 3] [-tolerance 0.10]
//
// A gate bounds the ratios of the cells it names either by a contract
// constant (the binary codec's 1.15x, the cluster's 1.8x scaling, ...)
// or by drift: the geomean of each cell's ratio over the ratio recorded
// in the baseline may grow to at most 1/(1 − tolerance). -write records
// the fresh report as the baseline. -quick shrinks every cell to small
// sizes and one round: a wrong answer still fails the run, while gates
// are reported but never fail it.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path"
	"runtime"
	"slices"
	"strings"
)

// Host fingerprints the machine a report was measured on. No gate reads
// it: every gate acts on in-run ratios. It says where a baseline came
// from.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"goversion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
}

// Result is one measured cost of a cell: the median of each side over
// the timed rounds, and their ratio.
type Result struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Subject float64 `json:"subject"`
	Floor   float64 `json:"floor"`
	Ratio   float64 `json:"ratio"`
	Rounds  int     `json:"rounds"`
}

// GateResult is one gate's verdict on a run.
type GateResult struct {
	Name  string  `json:"name"`
	Cells string  `json:"cells"`
	Drift bool    `json:"drift,omitempty"`
	Value float64 `json:"value"`
	Bound float64 `json:"bound"`
	Pass  bool    `json:"pass"`
	Why   string  `json:"why,omitempty"`
}

// Report is the BENCH_gate.json schema.
type Report struct {
	Host  Host         `json:"host"`
	Quick bool         `json:"quick,omitempty"`
	Cells []Result     `json:"cells"`
	Gates []GateResult `json:"gates"`
}

// A side runs one round of its cell's work, checks its output and
// returns its costs, one per metric of the cell; lower is better.
type side func() ([]float64, error)

// metric names one cost of a cell: its result name and its unit.
type metric struct{ name, unit string }

// A cell pairs a subject with its floor on the same work.
type cell struct {
	metrics []metric
	// rounds is the number of timed rounds; 0 takes -runs.
	rounds int
	// open prepares the work both sides share and returns the sides and
	// a closer (nil when there is nothing to release).
	open func() (subject, floor side, close func(), err error)
}

// A gate bounds the ratios of the results its pattern matches.
type gate struct {
	name string
	// cells is a path.Match pattern over result names.
	cells string
	// each requires every matched ratio to hold the bound; otherwise
	// their geomean must.
	each bool
	// bound is the contract ratio bound; 0 makes it a drift gate.
	bound float64
}

func main() {
	if err := run(os.Stdout, os.Args[1:], table); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// run parses args, measures every cell tab returns and judges its
// gates.
func run(w io.Writer, args []string, tab func(w io.Writer, quick bool) ([]cell, []gate)) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(w)
	baseline := fs.String("baseline", "BENCH_gate.json", "baseline report the drift gates compare against")
	out := fs.String("out", "", "also write the fresh report to this file")
	write := fs.Bool("write", false, "record the fresh report as the baseline instead of gating")
	quick := fs.Bool("quick", false, "small sizes and one round; fail on wrong answers, report gates without failing")
	runs := fs.Int("runs", 3, "timed rounds per cell (each side keeps its median)")
	tol := fs.Float64("tolerance", 0.10, "drift gates let a ratio grow to 1/(1-tolerance) of the baseline's")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*tol > 0 && *tol < 1) {
		return fmt.Errorf("-tolerance must be in (0, 1), got %v", *tol)
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be at least 1, got %d", *runs)
	}
	if *quick {
		*runs = 1
	}
	// Read the baseline before measuring anything: a mistyped path
	// should fail in milliseconds, not after the whole table ran.
	var base *Report
	if !*write {
		b, err := readReport(*baseline)
		if err != nil && !(*quick && os.IsNotExist(err)) {
			return fmt.Errorf("reading baseline: %w (run with -write to create it)", err)
		}
		base = b
	}

	cells, gates := tab(w, *quick)
	rep := &Report{Host: hostFingerprint(), Quick: *quick}
	for _, c := range cells {
		res, err := c.measure(cmp.Or(c.rounds, *runs))
		if err != nil {
			return fmt.Errorf("%s: %w", c.metrics[0].name, err)
		}
		for _, r := range res {
			fmt.Fprintf(w, "%-20s subject %10.4g  floor %10.4g %-5s ratio %.3f\n",
				r.Name, r.Subject, r.Floor, r.Unit, r.Ratio)
		}
		rep.Cells = append(rep.Cells, res...)
	}
	// -write records the fresh report as its own reference, so its
	// drift gates read 1.
	var recorded []Result
	switch {
	case *write:
		recorded = rep.Cells
	case base != nil:
		recorded = base.Cells
	}
	rep.Gates = evaluate(gates, rep.Cells, recorded, *tol)
	failed := 0
	for _, g := range rep.Gates {
		verdict := "ok  "
		if !g.Pass {
			verdict, failed = "FAIL", failed+1
		}
		fmt.Fprintf(w, "%s %-20s %.3f (bound %.3f) %s\n", verdict, g.Name, g.Value, g.Bound, g.Why)
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			return err
		}
	}
	switch {
	case *write:
		if err := writeReport(*baseline, rep); err != nil {
			return err
		}
		fmt.Fprintf(w, "baseline written to %s (%d cells, %d gates)\n", *baseline, len(cells), len(rep.Gates))
	case *quick:
		fmt.Fprintf(w, "smoke passed: %d cells answered correctly (%d of %d gates failed, reported, not gated)\n",
			len(cells), failed, len(rep.Gates))
	case failed > 0:
		return fmt.Errorf("%d of %d gates failed against baseline %s", failed, len(rep.Gates), *baseline)
	default:
		fmt.Fprintf(w, "gate passed: %d cells, all %d gates hold\n", len(cells), len(rep.Gates))
	}
	return nil
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

// measure runs one untimed warm-up round and then rounds timed rounds
// of both sides, flushing the garbage collector before each side and
// alternating which side goes first, so neither always inherits the
// other's cache and heap state. Each side keeps the median of every
// cost: one lucky round cannot set a baseline that later runs must
// beat.
func (c cell) measure(rounds int) ([]Result, error) {
	subject, floor, closeFn, err := c.open()
	if err != nil {
		return nil, err
	}
	if closeFn != nil {
		defer closeFn()
	}
	sides := [2]side{subject, floor}
	var costs [2][][]float64 // [side][metric][round]
	for r := 0; r <= rounds; r++ {
		for i := range 2 {
			s := (i + r) % 2
			runtime.GC()
			cs, err := sides[s]()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", [2]string{"subject", "floor"}[s], err)
			}
			if r == 0 {
				costs[s] = make([][]float64, len(cs))
				continue
			}
			for m, v := range cs {
				costs[s][m] = append(costs[s][m], v)
			}
		}
	}
	res := make([]Result, len(c.metrics))
	for m, mt := range c.metrics {
		sub, flo := median(costs[0][m]), median(costs[1][m])
		res[m] = Result{Name: mt.name, Unit: mt.unit,
			Subject: finite(sub), Floor: finite(flo), Ratio: finite(sub / flo), Rounds: rounds}
	}
	return res, nil
}

// finite maps an infinite or NaN cost or ratio, such as the cost per
// request of a side that completed none, to 0. JSON has no infinities,
// and every gate rejects a ratio of 0 as unmeasurable.
func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return 0
	}
	return x
}

// median returns the middle value (lower-middle for even counts).
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// evaluate judges every gate on the current results. A drift gate
// divides each cell's ratio by the one recorded for it. A gate fails
// when it matches no cell, when a drift gate finds a cell unrecorded,
// or when a ratio is not a positive finite number, as when a floor
// completed no work; each failure names its cells.
func evaluate(gates []gate, cur, recorded []Result, tol float64) []GateResult {
	rec := make(map[string]float64, len(recorded))
	for _, r := range recorded {
		rec[r.Name] = r.Ratio
	}
	out := make([]GateResult, 0, len(gates))
	for _, g := range gates {
		gr := GateResult{Name: g.name, Cells: g.cells, Drift: g.bound == 0, Bound: g.bound}
		if gr.Drift {
			gr.Bound = 1 / (1 - tol)
		}
		var missing, bad, over []string
		var logSum float64
		n, worst, worstCell := 0, 0.0, ""
		for _, r := range cur {
			if ok, _ := path.Match(g.cells, r.Name); !ok {
				continue
			}
			v := r.Ratio
			if gr.Drift {
				b, ok := rec[r.Name]
				if !ok {
					missing = append(missing, r.Name)
					continue
				}
				v /= b
			}
			if v = finite(v); v <= 0 {
				bad = append(bad, r.Name)
				continue
			}
			n++
			logSum += math.Log(v)
			if v > worst {
				worst, worstCell = v, r.Name
			}
			if v > gr.Bound {
				over = append(over, fmt.Sprintf("%s %.3f", r.Name, v))
			}
		}
		gr.Value = worst
		if !g.each && n > 0 {
			gr.Value = math.Exp(logSum / float64(n))
		}
		var why []string
		switch {
		case n+len(missing)+len(bad) == 0:
			why = append(why, "no cell matches "+g.cells)
		case len(missing) > 0:
			why = append(why, "no baseline for "+strings.Join(missing, ", "))
		}
		if len(bad) > 0 {
			why = append(why, "unmeasurable ratio in "+strings.Join(bad, ", "))
		}
		if g.each && len(over) > 0 {
			why = append(why, "over the bound: "+strings.Join(over, ", "))
		} else if !g.each && gr.Value > gr.Bound {
			why = append(why, fmt.Sprintf("worst cell %s %.3f", worstCell, worst))
		}
		gr.Pass = len(why) == 0
		gr.Why = strings.Join(why, "; ")
		out = append(out, gr)
	}
	return out
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
