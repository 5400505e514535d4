package chaos

import (
	"fmt"
	"sort"
	"testing"

	"wfsort/internal/layout"
	"wfsort/internal/native"
	"wfsort/internal/xrand"
)

// kernelPlans builds the battery's seeded fault plans for p workers
// sorting n keys: a stall storm of long and short delays scattered over
// every worker's run, and a crash quorum whose victims are revived.
func kernelPlans(p, n int, seed uint64) map[string]*native.Plan {
	rng := xrand.New(seed)
	ops := int64(4*n/p + 64) // roughly one worker's share of the kernel's ops
	storm := native.NewPlan()
	for pid := 0; pid < p; pid++ {
		for k := 0; k < 6; k++ {
			storm.StallAt(pid, 1+int64(rng.Intn(int(ops))), 16<<rng.Intn(8))
		}
	}
	crashes := CrashQuorum(p, 0.5, ops, seed)
	revive := native.NewPlan().AddCrashes(crashes)
	for _, c := range crashes {
		revive.Revive(c.PID, 1)
	}
	return map[string]*native.Plan{"stall-storm": storm, "kill-revive": revive}
}

// stableRanks is the host-side oracle: each element's 1-based rank in
// the stable sorted order.
func stableRanks(keys []int) []int {
	ids := make([]int, len(keys))
	for i := range ids {
		ids[i] = i + 1
	}
	sort.SliceStable(ids, func(a, b int) bool { return keys[ids[a]-1] < keys[ids[b]-1] })
	ranks := make([]int, len(keys))
	for r, id := range ids {
		ranks[id-1] = r + 1
	}
	return ranks
}

// TestKernelFaultBattery certifies the block-leaf kernel under seeded
// stall storms and kill+revive plans, at worker counts above this
// host's CPU count and at sizes across the block (256), segment and
// size-class (65536) edges: every run must rank the keys exactly as a
// stable sort does, with no worker over the op ceiling. Stragglers are
// the point: a worker stalled in merge round r must still find round
// r-1's region intact, which a kernel that recycled regions across
// rounds fails here.
func TestKernelFaultBattery(t *testing.T) {
	sizes := []int{1, 2, 255, 256, 257, 65535, 65536, 65537}
	if testing.Short() {
		sizes = []int{1, 2, 255, 256, 257, 4095, 4096, 4097}
	}
	for _, p := range []int{2, 3, 4, 8} {
		for _, n := range sizes {
			keys := randKeys(n, uint64(n)*31+uint64(p))
			for i := range keys {
				keys[i] %= max(n/4, 1) // ties exercise the index tie-break
			}
			want := stableRanks(keys)
			for seed := uint64(1); seed <= 2; seed++ {
				for name, plan := range kernelPlans(p, n, seed*977+uint64(n+p)) {
					t.Run(fmt.Sprintf("p%d/n%d/%s/%d", p, n, name, seed), func(t *testing.T) {
						s, a := layout.Native(n, p)
						rt := native.New(native.Config{
							P: p, Mem: a.Size(), Seed: seed, Less: lessFor(keys),
							CountOps: true, Adversary: plan,
						})
						s.Seed(rt.Memory())
						if _, err := rt.Run(s.Program()); err != nil {
							t.Fatal(err)
						}
						for i, r := range s.Places(rt.Memory()) {
							if r != want[i] {
								t.Fatalf("element %d ranked %d, want %d", i+1, r, want[i])
							}
						}
						for pid, ops := range rt.OpsPerProc() {
							if ops > Bound(n) {
								t.Errorf("worker %d ran %d ops, over the ceiling %d", pid, ops, Bound(n))
							}
						}
					})
				}
			}
		}
	}
}
