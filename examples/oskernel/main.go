// OS-kernel scenario: the paper's §1 motivation, on real goroutines.
//
// "Consider the case of sorting a large data set in the background of
// other ongoing computations. [...] If during the execution a processor
// is needed elsewhere, one can reap the thread associated with it
// without fear of leaving the program's internal data structures in an
// inconsistent state. [...] if other processors become free, one can
// spawn more threads to speed up the sorting process."
//
// This example starts a background sort on several workers, reaps half
// of them mid-run (simulating the OS reclaiming processors for other
// work), later respawns one (a processor freed up again), and shows the
// sort still finishes correctly — no locks, no coordination with the
// "kernel".
//
// Run with:
//
//	go run ./examples/oskernel
package main

import (
	"fmt"
	"log"
	"runtime"
	"sort"
	"time"

	"wfsort/internal/layout"
	"wfsort/internal/native"
	"wfsort/internal/xrand"
)

func main() {
	const n = 300_000
	workers := max(runtime.NumCPU(), 4)

	// Build the input and the sorter layout.
	rng := xrand.New(1)
	keys := make([]int, n)
	for i := range keys {
		keys[i] = rng.Intn(10 * n)
	}
	less := func(i, j int) bool {
		a, b := keys[i-1], keys[j-1]
		if a != b {
			return a < b
		}
		return i < j
	}
	sorter, arena := layout.Native(n, workers)
	rt := native.New(native.Config{P: workers, Mem: arena.Size(), Less: less})
	sorter.Seed(rt.Memory())

	// The "kernel": while the sort runs in the background, reclaim half
	// the processors, then hand one back.
	go func() {
		time.Sleep(2 * time.Millisecond)
		for pid := workers / 2; pid < workers; pid++ {
			rt.Kill(pid)
		}
		fmt.Printf("kernel: reaped workers %d..%d mid-sort\n", workers/2, workers-1)

		time.Sleep(2 * time.Millisecond)
		if err := rt.Respawn(workers / 2); err == nil {
			fmt.Printf("kernel: processor freed up — respawned worker %d\n", workers/2)
		} else {
			// The survivors may already have finished; that is success,
			// not failure.
			fmt.Printf("kernel: respawn unnecessary (%v)\n", err)
		}
	}()

	fmt.Printf("sorting %d elements in the background on %d workers...\n", n, workers)
	start := time.Now()
	met, err := rt.Run(sorter.Program())
	if err != nil {
		log.Fatal(err)
	}

	// Verify: ranks must be a correct sort despite the reaping.
	ranks := sorter.Places(rt.Memory())
	out := make([]int, n)
	for i, r := range ranks {
		out[r-1] = keys[i]
	}
	fmt.Printf("finished in %s; %d workers were reaped during the run\n",
		time.Since(start).Round(time.Millisecond), met.Killed)
	fmt.Printf("output sorted: %v\n", sort.IntsAreSorted(out))
}
