// Command chaos sweeps adversary policies across worker counts,
// certifying every native run against the wait-freedom op ceiling and
// its scheduled kills, and cross-checking seeded crash schedules between
// the simulator and the native runtime (see internal/chaos). It prints a
// human-readable table to stderr, emits the full JSON report to stdout
// (or -out FILE), and exits non-zero if any run failed to sort or to
// certify.
//
// Usage:
//
//	chaos [-n 4096] [-p 2,4,8] [-seed 1] [-quick] [-out FILE] [-trace-out FILE]
//
// -trace-out arms the observability plane on the native runs: if a run
// fails certification, its Chrome/Perfetto trace (per-incarnation
// tracks, phase spans, kill/stall instants) is written to FILE for
// post-mortem in ui.perfetto.dev. Nothing is written when the sweep is
// clean.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"wfsort/internal/chaos"
)

func main() {
	if err := run(os.Stdout, os.Stderr, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
}

func run(out, log io.Writer, args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(log)
	n := fs.Int("n", 0, "input size (default 4096, or 1024 with -quick)")
	ps := fs.String("p", "", "comma-separated worker counts (default 2,4,8, or 2,8 with -quick)")
	seed := fs.Uint64("seed", 1, "seed for keys, algorithm randomness and crash schedules")
	quick := fs.Bool("quick", false, "reduced sweep for CI smoke")
	outPath := fs.String("out", "", "write the JSON report to this file instead of stdout")
	traceOut := fs.String("trace-out", "", "write a Perfetto trace of the first failing native run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := chaos.SweepOptions{N: *n, Seed: *seed, Quick: *quick, TraceOut: *traceOut}
	if *ps != "" {
		parsed, err := parsePs(*ps)
		if err != nil {
			return err
		}
		opts.Ps = parsed
	}

	rep, err := chaos.Sweep(opts)
	if err != nil {
		return err
	}
	printTable(log, rep)

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(out, string(b))
	}

	if !rep.OK {
		if rep.TracePath != "" {
			fmt.Fprintf(log, "perfetto trace of first failure written to %s\n", rep.TracePath)
		}
		return fmt.Errorf("%d run(s) failed certification", len(rep.Failures))
	}
	fmt.Fprintf(log, "chaos sweep ok: %d runs certified, %d differentials identical (n=%d seed=%d)\n",
		len(rep.Runs), len(rep.Differential), rep.N, rep.Seed)
	return nil
}

func parsePs(s string) ([]int, error) {
	var ps []int
	for _, f := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("invalid worker count %q in -p", f)
		}
		ps = append(ps, p)
	}
	return ps, nil
}

func printTable(w io.Writer, rep *chaos.Report) {
	fmt.Fprintf(w, "%-19s %3s %6s %7s %8s %5s %8s %10s %6s  %s\n",
		"policy", "p", "sched", "killed", "respawns", "surv", "maxops", "bound", "ratio", "status")
	for _, r := range rep.Runs {
		status := "ok"
		if !r.OK() || r.Killed != r.Scheduled {
			status = "FAIL"
			if r.Error != "" {
				status += " " + r.Error
			}
		}
		fmt.Fprintf(w, "%-19s %3d %6d %7d %8d %5d %8d %10d %6.3f  %s\n",
			r.Policy, r.P, r.Scheduled, r.Killed, r.Respawns, r.Survivors,
			r.MaxOps, r.Bound, float64(r.MaxOps)/float64(r.Bound), status)
	}
	for _, d := range rep.Differential {
		fmt.Fprintln(w, "differential", d)
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "FAILURE:", f)
	}
}
