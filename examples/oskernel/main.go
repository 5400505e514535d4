// OS-kernel scenario: the paper's §1 motivation, on real goroutines.
//
// "Consider the case of sorting a large data set in the background of
// other ongoing computations. [...] If during the execution a processor
// is needed elsewhere, one can reap the thread associated with it
// without fear of leaving the program's internal data structures in an
// inconsistent state. [...] if other processors become free, one can
// spawn more threads to speed up the sorting process."
//
// This example starts a background sort on a team of workers, reaps
// half of them mid-run (simulating the OS reclaiming processors for
// other work), later respawns one (a processor freed up again), and
// shows the sort still finishes correctly — no locks, no coordination
// with the "kernel". The kernel reaps with Team.Kill and hands a
// processor back through the job's Respawner, the one way a reaped
// worker returns.
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
	"wfsort/internal/model"
	"wfsort/internal/native"
	"wfsort/internal/xrand"
)

// kernel stands in for the OS. As the job's adversary it strikes
// nothing; its Respawn holds the one reaped worker it will revive until
// that worker's processor is freed, and refuses the rest.
type kernel struct {
	revive int           // the worker whose processor is handed back
	freed  chan struct{} // closed when that processor frees up
}

func (k *kernel) Strike(int, int64) model.Fault { return model.Fault{} }

func (k *kernel) Respawn(pid, deaths int) bool {
	if pid != k.revive || deaths != 1 {
		return false
	}
	<-k.freed
	return true
}

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
	mem := make([]native.Word, arena.Size())
	sorter.Seed(mem)
	team := native.NewTeam(workers, false)
	defer team.Close()
	k := &kernel{revive: workers / 2, freed: make(chan struct{})}

	fmt.Printf("sorting %d elements in the background on %d workers...\n", n, workers)
	start := time.Now()
	run := team.Start(native.TeamJob{Graph: sorter.Graph(), Mem: mem, Less: less, Adversary: k})

	// The "kernel": while the sort runs in the background, reclaim half
	// the processors, then hand one back.
	go func() {
		time.Sleep(2 * time.Millisecond)
		for pid := workers / 2; pid < workers; pid++ {
			team.Kill(pid)
		}
		fmt.Printf("kernel: reaped workers %d..%d mid-sort\n", workers/2, workers-1)

		time.Sleep(2 * time.Millisecond)
		fmt.Printf("kernel: processor freed up — worker %d may respawn\n", workers/2)
		close(k.freed)
	}()
	met, err := run.Wait()
	if err != nil {
		log.Fatal(err)
	}
	<-k.freed // the kernel goroutine has printed its last line

	// Verify: ranks must be a correct sort despite the reaping.
	ranks := sorter.Places(mem)
	out := make([]int, n)
	for i, r := range ranks {
		out[r-1] = keys[i]
	}
	fmt.Printf("finished in %s; %d workers were reaped and %d respawned during the run\n",
		time.Since(start).Round(time.Millisecond), met.Killed, met.Respawns)
	if !sort.IntsAreSorted(out) {
		log.Fatal("output sorted: false")
	}
	fmt.Println("output sorted: true")
}
