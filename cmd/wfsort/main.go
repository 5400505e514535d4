// Command wfsort sorts integers with the wait-free parallel sorting
// algorithm — on real goroutines by default, or on the deterministic
// CRCW PRAM simulator with -sim, in which case it reports exact step
// counts and memory contention.
//
// Usage:
//
//	wfsort [-workers P] [-sim [-variant det|rand|lowcont]] [-stats]
//	       [-gen N] [-seed S] [-quiet]
//
// -variant picks which of the paper's algorithms -sim simulates; the
// native sort always runs the block-leaf kernel.
//
// Input is one integer per line on stdin, unless -gen N asks for a
// random input of size N. Output is the sorted sequence on stdout
// (suppressed by -quiet), with statistics on stderr when -stats or
// -sim is given.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"wfsort"
	"wfsort/internal/xrand"
)

func main() {
	if err := run(os.Stdin, os.Stdout, os.Stderr, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wfsort:", err)
		os.Exit(1)
	}
}

func run(stdin io.Reader, stdout, stderr io.Writer, args []string) error {
	fs := flag.NewFlagSet("wfsort", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workers := fs.Int("workers", 0, "parallel workers (default GOMAXPROCS)")
	variant := fs.String("variant", "rand", "simulated algorithm (with -sim): det, rand, or lowcont")
	sim := fs.Bool("sim", false, "run on the PRAM simulator and report exact metrics")
	stats := fs.Bool("stats", false, "report timing statistics")
	gen := fs.Int("gen", 0, "generate N random integers instead of reading stdin")
	seed := fs.Uint64("seed", 0, "seed for generation and randomized phases")
	quiet := fs.Bool("quiet", false, "suppress sorted output")
	if err := fs.Parse(args); err != nil {
		return err
	}

	v, err := parseVariant(*variant)
	if err != nil {
		return err
	}
	data, err := input(stdin, *gen, *seed)
	if err != nil {
		return err
	}

	var opts []wfsort.Option
	if *workers > 0 {
		opts = append(opts, wfsort.WithWorkers(*workers))
	}
	opts = append(opts, wfsort.WithVariant(v), wfsort.WithSeed(*seed))

	if *sim {
		res, err := wfsort.Simulate(data, opts...)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "%s\ntree depth: %d\n", res.Metrics, res.TreeDepth)
		if !*quiet {
			out := make([]int, len(data))
			for i, r := range res.Ranks {
				out[r-1] = data[i]
			}
			writeInts(stdout, out)
		}
		return nil
	}

	start := time.Now()
	if err := wfsort.Sort(data, opts...); err != nil {
		return err
	}
	elapsed := time.Since(start)
	if *stats {
		fmt.Fprintf(stderr, "sorted %d integers in %s (sorted=%v)\n",
			len(data), elapsed.Round(time.Microsecond), sort.IntsAreSorted(data))
	}
	if !*quiet {
		writeInts(stdout, data)
	}
	return nil
}

func parseVariant(s string) (wfsort.Variant, error) {
	switch s {
	case "det", "deterministic":
		return wfsort.Deterministic, nil
	case "rand", "randomized":
		return wfsort.Randomized, nil
	case "lowcont", "lowcontention":
		return wfsort.LowContention, nil
	default:
		return 0, fmt.Errorf("unknown variant %q (want det, rand or lowcont)", s)
	}
}

func input(stdin io.Reader, gen int, seed uint64) ([]int, error) {
	if gen > 0 {
		rng := xrand.New(seed)
		data := make([]int, gen)
		for i := range data {
			data[i] = rng.Intn(4 * gen)
		}
		return data, nil
	}
	var data []int
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		v, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("bad input line %q: %w", line, err)
		}
		data = append(data, v)
	}
	return data, sc.Err()
}

func writeInts(w io.Writer, data []int) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	for _, v := range data {
		bw.WriteString(strconv.Itoa(v))
		bw.WriteByte('\n')
	}
}
