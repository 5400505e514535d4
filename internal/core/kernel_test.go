package core

import (
	"testing"

	"wfsort/internal/model"
	"wfsort/internal/pram"
)

// runKernel sorts keys with the kernel on the simulator under sched and
// fails the test unless the ranks are exactly the stable ranking.
func runKernel(t *testing.T, keys []int, p int, seed uint64, sched pram.Scheduler) {
	t.Helper()
	var a model.Arena
	k := NewKernel(&a, len(keys), p)
	m := pram.New(pram.Config{P: p, Mem: a.Size(), Seed: seed, Sched: sched, Less: lessFor(keys)})
	k.Seed(m.Memory())
	if _, err := m.Run(k.Program()); err != nil {
		t.Fatalf("kernel(n=%d P=%d): %v", len(keys), p, err)
	}
	for i, want := range wantRanks(keys) {
		if got := k.Places(m.Memory())[i]; got != want {
			t.Fatalf("kernel(n=%d P=%d): element %d placed %d, want %d", len(keys), p, i+1, got, want)
		}
	}
	if !k.Graph().Done(m.Memory()) {
		t.Fatalf("kernel(n=%d P=%d): phase %q predicate unsatisfied", len(keys), p, k.Graph().FirstUndone(m.Memory()))
	}
	if pub, placed := k.Progress(m.Memory()); pub != len(keys) || placed != len(keys) {
		t.Fatalf("kernel(n=%d P=%d): progress %d/%d, want %d", len(keys), p, pub, placed, len(keys))
	}
}

// TestKernelMatchesPivotTree pins that the kernel and the paper's pivot
// tree compute the same ranks on the same input, across worker counts
// and sizes on both sides of the block and segment edges.
func TestKernelMatchesPivotTree(t *testing.T) {
	for _, n := range []int{1, 2, 127, 128, 129, 255, 256, 257, 513, 1500} {
		keys := randKeys(n, uint64(n))
		for i := range keys {
			keys[i] %= 50 // many ties: stability rides on the index tie-break
		}
		for _, p := range []int{1, 2, 3, 6} {
			// Both check their ranks against the same host-side oracle.
			runKernel(t, keys, p, 11, nil)
			runSort(t, keys, p, AllocRandomized, 11, nil)
		}
	}
}

// TestKernelShape pins the sizing rule: the next power of two at or
// above 2P blocks, no block under 256 ids, half-block merge segments,
// and one merge round per halving of the block count.
func TestKernelShape(t *testing.T) {
	for _, c := range []struct{ n, p, blocks, block, rounds int }{
		{1, 1, 1, 256, 1},
		{300, 8, 2, 256, 1},
		{1 << 12, 2, 4, 1024, 2},
		{1 << 16, 3, 8, 8192, 3},
		{1 << 16, 8, 16, 4096, 4},
		{65537, 2, 4, 16386, 2},
		{5000, 4, 8, 626, 3},
	} {
		var a model.Arena
		k := NewKernel(&a, c.n, c.p)
		if k.build.Jobs() != c.blocks || k.block != c.block || len(k.merge) != c.rounds || k.seg != c.block/2 {
			t.Errorf("n=%d p=%d: blocks=%d block=%d seg=%d rounds=%d, want %d/%d/%d/%d",
				c.n, c.p, k.build.Jobs(), k.block, k.seg, len(k.merge), c.blocks, c.block, c.block/2, c.rounds)
		}
		// One run region per round plus the rank table; the work trees
		// are O(blocks) words.
		if words := a.Size(); words > (c.rounds+1)*c.n+64*c.blocks+64 {
			t.Errorf("n=%d p=%d: arena holds %d words, want about %d", c.n, c.p, words, (c.rounds+1)*c.n)
		}
	}
}

// TestKernelUnderHostileSchedules runs the kernel on the simulator under
// asynchrony, serialization, contention adversaries and crash quorums
// sparing processor 0: every run must produce the exact stable ranking.
func TestKernelUnderHostileSchedules(t *testing.T) {
	keys := randKeys(3000, 5)
	for _, p := range []int{2, 5, 8} {
		var spared []model.Crash
		for _, c := range model.RandomCrashes(p, 0.6, 4000, uint64(p)) {
			if c.PID != 0 {
				spared = append(spared, c)
			}
		}
		for name, sched := range map[string]pram.Scheduler{
			"randomsubset": pram.RandomSubset(0.3),
			"roundrobin":   pram.RoundRobin(1),
			"adversary":    pram.NewContentionAdversary(),
			"crashes":      pram.WithCrashes(pram.Synchronous(), spared),
		} {
			t.Run(name, func(t *testing.T) { runKernel(t, keys, p, uint64(p), sched) })
		}
	}
}

// pollProbe wraps a processor and records the longest run of leaf
// comparisons between two shared-memory operations.
type pollProbe struct {
	model.Proc
	run, longest, idles int
}

func (q *pollProbe) op()                 { q.run = 0 }
func (q *pollProbe) Read(a int) Word     { q.op(); return q.Proc.Read(a) }
func (q *pollProbe) Write(a int, v Word) { q.op(); q.Proc.Write(a, v) }
func (q *pollProbe) CAS(a int, o, n Word) bool {
	q.op()
	return q.Proc.CAS(a, o, n)
}
func (q *pollProbe) Idle() { q.op(); q.idles++; q.Proc.Idle() }
func (q *pollProbe) Less(i, j int) bool {
	if q.run++; q.run > q.longest {
		q.longest = q.run
	}
	return q.Proc.Less(i, j)
}

// TestKernelBoundsLocalWork pins the kernel's bounded local work: a
// lone worker sorting one big block never makes more than pollEvery
// comparisons between shared-memory operations, so a kill or abort
// lands mid-block instead of after it.
func TestKernelBoundsLocalWork(t *testing.T) {
	keys := randKeys(1<<15, 9)
	var a model.Arena
	k := NewKernel(&a, len(keys), 1)
	m := pram.New(pram.Config{P: 1, Mem: a.Size(), Less: lessFor(keys)})
	k.Seed(m.Memory())
	probe := &pollProbe{}
	if _, err := m.Run(func(p model.Proc) { probe.Proc = p; k.Program()(probe) }); err != nil {
		t.Fatal(err)
	}
	if probe.longest > pollEvery {
		t.Errorf("%d comparisons between shared-memory operations, want at most %d", probe.longest, pollEvery)
	}
	if probe.idles == 0 {
		t.Error("leaf sorts never polled")
	}
}

// TestKernelBusySlotFallsBack covers a worker id whose leaf scratch is
// already claimed. No driver does this now (a Team revives a worker on
// the goroutine that died), but the slot CAS stays as a guard against
// two live goroutines sharing an id: the worker must sort in a private
// buffer and leave the other claimant's slot alone.
func TestKernelBusySlotFallsBack(t *testing.T) {
	keys := randKeys(2000, 3)
	var a model.Arena
	k := NewKernel(&a, len(keys), 2)
	k.slots[0].busy.Store(true)
	m := pram.New(pram.Config{P: 2, Mem: a.Size(), Less: lessFor(keys)})
	k.Seed(m.Memory())
	if _, err := m.Run(k.Program()); err != nil {
		t.Fatal(err)
	}
	for i, want := range wantRanks(keys) {
		if got := k.Places(m.Memory())[i]; got != want {
			t.Fatalf("element %d placed %d, want %d", i+1, got, want)
		}
	}
	if !k.slots[0].busy.Load() || k.slots[1].busy.Load() {
		t.Errorf("slot claims after the run: %v %v, want true false", k.slots[0].busy.Load(), k.slots[1].busy.Load())
	}
}
