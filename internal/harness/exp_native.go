package harness

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"wfsort/internal/core"
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

	workersList := []int{1, 2, runtime.NumCPU()}
	for _, p := range workersList {
		rt, s, err := buildNative(keys, p, o.Seed)
		if err != nil {
			return nil, err
		}
		met, err := rt.Run(s.Program())
		if err != nil {
			return nil, err
		}
		correct := ranksMatch(s.Places(rt.Memory()), keys)
		t.AddRow(n, p, rt.Elapsed.Round(time.Millisecond).String(),
			stdElapsed.Round(time.Millisecond).String(), correct, met.Killed)
	}

	// Kill tolerance: reap half the workers mid-sort; survivors finish.
	p := max(runtime.NumCPU(), 4)
	rt, s, err := buildNative(keys, p, o.Seed)
	if err != nil {
		return nil, err
	}
	go func() {
		time.Sleep(2 * time.Millisecond)
		for pid := p / 2; pid < p; pid++ {
			rt.Kill(pid)
		}
	}()
	met, err := rt.Run(s.Program())
	if err != nil {
		return nil, err
	}
	correct := ranksMatch(s.Places(rt.Memory()), keys)
	t.AddRow(n, fmt.Sprintf("%d (reap %d)", p, p/2),
		rt.Elapsed.Round(time.Millisecond).String(),
		stdElapsed.Round(time.Millisecond).String(), correct, met.Killed)
	t.Notef("killed column counts reaped goroutines; correctness holds regardless — the wait-free guarantee on real hardware")
	t.Notef("every claim, publication and merge-round write is a shared-memory operation; the rows show kill tolerance and the distance to the sequential floor, not a tuned sort race")
	return t, nil
}

func buildNative(keys []int, p int, seed uint64) (*native.Runtime, *core.Kernel, error) {
	k, a := layout.Native(len(keys), p)
	rt := native.New(native.Config{P: p, Mem: a.Size(), Seed: seed, Less: LessFor(keys)})
	k.Seed(rt.Memory())
	return rt, k, nil
}
