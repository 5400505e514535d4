package native_test

import (
	"sort"
	"sync/atomic"
	"testing"

	"wfsort/internal/chaos"
	"wfsort/internal/core"
	"wfsort/internal/layout"
	"wfsort/internal/model"
	"wfsort/internal/native"
)

// hostRanks computes each element's expected 1-based rank host-side,
// ties broken by index.
func hostRanks(keys []int) []int {
	ids := make([]int, len(keys))
	for i := range ids {
		ids[i] = i + 1
	}
	sort.SliceStable(ids, func(a, b int) bool { return keys[ids[a]-1] < keys[ids[b]-1] })
	ranks := make([]int, len(keys))
	for pos, id := range ids {
		ranks[id-1] = pos + 1
	}
	return ranks
}

func testKeys(n int, seed int64) []int {
	keys := make([]int, n)
	v := uint64(seed)*2654435761 + 1
	for i := range keys {
		v = v*6364136223846793005 + 1442695040888963407
		keys[i] = int(v % uint64(4*n))
	}
	return keys
}

func lessFor(keys []int) func(i, j int) bool {
	return func(i, j int) bool {
		a, b := keys[i-1], keys[j-1]
		if a != b {
			return a < b
		}
		return i < j
	}
}

// phase3Adversary kills its victim at the victim's first shared-memory
// operation inside phase 3 (armed by the phase tap below, from the
// victim's own goroutine) and grants it one respawn. killed needs no
// atomicity — it is only touched under the pid == victim short-circuit,
// i.e. from the victim's serialized incarnations.
type phase3Adversary struct {
	victim int
	armed  atomic.Bool
	killed bool
}

func (a *phase3Adversary) Strike(pid int, op int64) model.Fault {
	if pid == a.victim && !a.killed && a.armed.Load() {
		a.killed = true
		return model.Fault{Action: model.FaultKill}
	}
	return model.Fault{}
}

func (a *phase3Adversary) Respawn(pid, deaths int) bool { return deaths <= 1 }

// phaseTap forwards model.Proc and arms the adversary when the victim
// announces a phase.
type phaseTap struct {
	model.Proc
	adv   *phase3Adversary
	phase string
}

func (t phaseTap) Phase(name string) {
	t.Proc.Phase(name)
	if name == t.phase && t.Proc.ID() == t.adv.victim {
		t.adv.armed.Store(true)
	}
}

// sortProgram is a sort laid out in an arena, as the tests drive it.
type sortProgram interface {
	Seed(mem []model.Word)
	Program() model.Program
	Places(mem []model.Word) []int
}

// testLayouts are the sorts the driver tests run, each with the size of
// its arena: "sharded" is the block-leaf kernel every native sort runs,
// on its padded arena; "padded" and "flat" are the paper's randomized
// pivot tree, on a padded Arena and on the simulator's dense arena. The
// pivot tree's helping and CAS races are the harsher test of the
// driver's kill, respawn and op accounting.
var testLayouts = []struct {
	name  string
	build func(n, p int) (sortProgram, int)
}{
	{"sharded", func(n, p int) (sortProgram, int) {
		s, a := layout.Native(n, p)
		return s, a.Size()
	}},
	{"padded", func(n, p int) (sortProgram, int) {
		a := native.NewArena()
		s := core.NewSorter(a, n, core.AllocRandomized)
		return s, a.Size()
	}},
	{"flat", func(n, p int) (sortProgram, int) {
		s, a := layout.Sim(layout.Randomized, n, p)
		return s, a.Size()
	}},
}

// TestRespawnDuringPhase3AllLayouts kills a worker at its first
// operation inside phase 3 — the pivot tree's find_place, the kernel's
// merge rounds — and lets the adversary revive it, on every layout. The
// sort must finish correctly with the death and respawn accounted, and
// every processor must stay under the certified op ceiling.
func TestRespawnDuringPhase3AllLayouts(t *testing.T) {
	const n, p = 512, 4
	keys := testKeys(n, 3)
	want := hostRanks(keys)
	for _, l := range testLayouts {
		t.Run(l.name, func(t *testing.T) {
			s, size := l.build(n, p)
			adv := &phase3Adversary{victim: 1}
			rt := native.New(native.Config{
				P: p, Mem: size, Seed: 7, CountOps: true,
				Less: lessFor(keys), Adversary: adv,
			})
			s.Seed(rt.Memory())
			prog := s.Program()
			met, err := rt.Run(func(pr model.Proc) {
				prog(phaseTap{Proc: pr, adv: adv, phase: "3:place"})
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if met.Killed != 1 || met.Respawns != 1 {
				t.Errorf("killed=%d respawns=%d, want 1/1", met.Killed, met.Respawns)
			}
			for i, r := range s.Places(rt.Memory()) {
				if r != want[i] {
					t.Fatalf("element %d placed %d, want %d", i+1, r, want[i])
				}
			}
			for pid, ops := range rt.OpsPerProc() {
				if ops > chaos.Bound(n) {
					t.Errorf("pid %d executed %d ops, over the ceiling %d", pid, ops, chaos.Bound(n))
				}
			}
		})
	}
}

// TestKillAllButOneEveryLayout schedules the harshest permitted quorum
// — every processor except 0 dies at a staggered early ordinal — on
// every layout. The lone mandated survivor must finish the sort alone,
// each victim must stop at exactly its scheduled ordinal, and the
// survivor must stay under the certified per-processor op ceiling. The
// ordinals are small because a victim the scheduler starts only after
// the survivor has finished exits through completion marks: on the
// kernel that path is ten operations at this size.
func TestKillAllButOneEveryLayout(t *testing.T) {
	const n, p = 512, 4
	keys := testKeys(n, 5)
	want := hostRanks(keys)
	for _, l := range testLayouts {
		t.Run(l.name, func(t *testing.T) {
			s, size := l.build(n, p)
			plan := native.NewPlan()
			for pid := 1; pid < p; pid++ {
				plan.KillAt(pid, int64(2*pid+1))
			}
			rt := native.New(native.Config{
				P: p, Mem: size, Seed: 11, CountOps: true,
				Less: lessFor(keys), Adversary: plan,
			})
			s.Seed(rt.Memory())
			met, err := rt.Run(s.Program())
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if met.Killed != p-1 {
				t.Fatalf("killed = %d, want %d", met.Killed, p-1)
			}
			for i, r := range s.Places(rt.Memory()) {
				if r != want[i] {
					t.Fatalf("element %d placed %d, want %d", i+1, r, want[i])
				}
			}
			ops := rt.OpsPerProc()
			for pid := 1; pid < p; pid++ {
				if wantOps := int64(2 * pid); ops[pid] != wantOps {
					t.Errorf("victim %d executed %d ops, want exactly %d", pid, ops[pid], wantOps)
				}
			}
			if ops[0] > chaos.Bound(n) {
				t.Errorf("survivor executed %d ops, over the ceiling %d", ops[0], chaos.Bound(n))
			}
		})
	}
}
