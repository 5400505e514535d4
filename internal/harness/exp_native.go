package harness

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"wfsort/internal/layout"
	"wfsort/internal/native"
)

// E13Native runs the native sort — the block-leaf kernel, whose blocks
// and merge segments the paper's work-assignment trees hand out — on
// real goroutines with sync/atomic shared memory, the paper's
// operating-system motivation realized, and compares wall time against
// the standard library's sequential sort. The point is that the
// wait-free machinery runs on real hardware and tolerates thread
// reaping.
func E13Native(o Options) (*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "native goroutine runtime: wall time and kill tolerance",
		Claim: "§1: the sort runs with oblivious thread scheduling; threads can be reaped or spawned at will",
		Header: []string{
			"N", "workers", "wall time", "stdlib sort", "correct?", "killed",
		},
	}
	n := 200_000
	if o.Quick {
		n = 20_000
	}
	keys := MakeKeys(InputRandom, n, o.Seed)

	// Stdlib reference.
	ref := make([]int, n)
	copy(ref, keys)
	t0 := time.Now()
	sort.Ints(ref)
	stdElapsed := time.Since(t0)

	// sortOn sorts keys on a one-job team of p workers and adds the
	// row; with reap set, the upper half of the team is reaped 2 ms
	// into the job and the survivors finish.
	sortOn := func(p int, reap bool) error {
		k, a := layout.Native(n, p)
		mem := make([]native.Word, a.Size())
		k.Seed(mem)
		team := native.NewTeam(p, false)
		defer team.Close()
		run := team.Start(native.TeamJob{Graph: k.Graph(), Mem: mem, Seed: o.Seed, Less: LessFor(keys)})
		workers := fmt.Sprint(p)
		var reaper sync.WaitGroup
		if reap {
			workers = fmt.Sprintf("%d (reap %d)", p, p/2)
			reaper.Add(1)
			go func() {
				defer reaper.Done()
				time.Sleep(2 * time.Millisecond)
				for pid := p / 2; pid < p; pid++ {
					team.Kill(pid)
				}
			}()
		}
		met, err := run.Wait()
		reaper.Wait()
		if err != nil {
			return err
		}
		t.AddRow(n, workers, run.Elapsed.Round(time.Millisecond).String(),
			stdElapsed.Round(time.Millisecond).String(), ranksMatch(k.Places(mem), keys), met.Killed)
		return nil
	}
	for _, p := range []int{1, 2, runtime.NumCPU()} {
		if err := sortOn(p, false); err != nil {
			return nil, err
		}
	}
	if err := sortOn(max(runtime.NumCPU(), 4), true); err != nil {
		return nil, err
	}
	t.Notef("killed column counts reaped goroutines; correctness holds regardless — the wait-free guarantee on real hardware")
	t.Notef("every claim, publication and merge-round write is a shared-memory operation; the rows show kill tolerance and the distance to the sequential floor, not a tuned sort race")
	return t, nil
}
