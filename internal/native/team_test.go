package native

import (
	"sort"
	"sync"
	"testing"

	"wfsort/internal/core"
	"wfsort/internal/model"
	"wfsort/internal/obs"
)

// teamSortJob lays out a fresh sorter for keys and returns the job and
// the sorter (for reading places back).
func teamSortJob(keys []int, seed uint64) (TeamJob, *core.Sorter, []Word) {
	var a model.Arena
	s := core.NewSorter(&a, len(keys), core.AllocRandomized)
	mem := make([]Word, a.Size())
	s.Seed(mem)
	less := func(i, j int) bool {
		ki, kj := keys[i-1], keys[j-1]
		if ki != kj {
			return ki < kj
		}
		return i < j
	}
	return TeamJob{Graph: s.Graph(), Mem: mem, Less: less, Seed: seed}, s, mem
}

func checkRanks(t *testing.T, keys []int, s *core.Sorter, mem []Word) {
	t.Helper()
	places := s.Places(mem)
	out := make([]int, len(keys))
	for i, r := range places {
		if r < 1 || r > len(keys) {
			t.Fatalf("element %d: rank %d out of range", i+1, r)
		}
		out[r-1] = keys[i]
	}
	if !sort.IntsAreSorted(out) {
		t.Fatalf("output not sorted: %v", out)
	}
}

// TestTeamReuse runs many successive sorts on one team and verifies
// each one — the resident-worker contract the pool depends on.
func TestTeamReuse(t *testing.T) {
	tm := NewTeam(4, true)
	defer tm.Close()
	for run := 0; run < 10; run++ {
		n := 64 + run*37
		keys := make([]int, n)
		for i := range keys {
			keys[i] = (i * 131) % 97
		}
		job, s, mem := teamSortJob(keys, uint64(run))
		met, err := tm.Run(job)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if met.Ops == 0 {
			t.Fatalf("run %d: no ops counted", run)
		}
		checkRanks(t, keys, s, mem)
	}
}

// TestTeamFaults drives a job with a kill/revive plan and verifies the
// sort still completes with the deaths and respawns accounted.
func TestTeamFaults(t *testing.T) {
	tm := NewTeam(4, true)
	defer tm.Close()
	keys := make([]int, 400)
	for i := range keys {
		keys[i] = (i * 7919) % 211
	}
	plan := NewPlan()
	for pid := 1; pid < 4; pid++ {
		// Low ordinals: on one CPU a late worker may find all work done
		// and finish in few ops, so a high ordinal would never land.
		plan.KillAt(pid, int64(3*pid)).Revive(pid, 1)
	}
	job, s, mem := teamSortJob(keys, 3)
	job.Adversary = plan
	met, err := tm.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if met.Killed != 3 || met.Respawns != 3 {
		t.Fatalf("killed=%d respawns=%d, want 3 and 3", met.Killed, met.Respawns)
	}
	checkRanks(t, keys, s, mem)

	// The team must be back at full strength for the next, faultless job.
	keys2 := []int{9, 1, 8, 2, 7, 3, 6, 4, 5}
	job2, s2, mem2 := teamSortJob(keys2, 4)
	if _, err := tm.Run(job2); err != nil {
		t.Fatal(err)
	}
	checkRanks(t, keys2, s2, mem2)
}

// TestTeamCrashHalfNoRevive kills half the workers permanently within
// one job: survivors must finish, and the dead workers come back for
// the next job because only the program unwound, not the goroutine.
func TestTeamCrashHalfNoRevive(t *testing.T) {
	tm := NewTeam(6, true)
	defer tm.Close()
	keys := make([]int, 300)
	for i := range keys {
		keys[i] = (i * 31) % 59
	}
	plan := NewPlan()
	for pid := 3; pid < 6; pid++ {
		plan.KillAt(pid, int64(2+pid))
	}
	job, s, mem := teamSortJob(keys, 5)
	job.Adversary = plan
	met, err := tm.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if met.Killed != 3 || met.Respawns != 0 {
		t.Fatalf("killed=%d respawns=%d, want 3 and 0", met.Killed, met.Respawns)
	}
	checkRanks(t, keys, s, mem)

	job2, s2, mem2 := teamSortJob(keys, 6)
	if _, err := tm.Run(job2); err != nil {
		t.Fatal(err)
	}
	checkRanks(t, keys, s2, mem2)
}

// TestTeamAbort aborts a job mid-flight: Wait must return promptly and
// the team must serve the next job normally.
func TestTeamAbort(t *testing.T) {
	tm := NewTeam(2, false)
	defer tm.Close()
	keys := make([]int, 5000)
	for i := range keys {
		keys[i] = (i * 48271) % 65537
	}
	job, _, _ := teamSortJob(keys, 7)
	run := tm.Start(job)
	run.Abort()
	if _, err := run.Wait(); err != nil {
		t.Fatalf("aborted wait: %v", err)
	}
	if !run.Aborted() {
		t.Fatal("run not marked aborted")
	}

	keys2 := []int{3, 1, 2}
	job2, s2, mem2 := teamSortJob(keys2, 8)
	if _, err := tm.Run(job2); err != nil {
		t.Fatal(err)
	}
	checkRanks(t, keys2, s2, mem2)
}

// TestTeamObserver installs an observer on a team job and checks the
// phase spans arrive, then reuses the team unobserved.
func TestTeamObserver(t *testing.T) {
	tm := NewTeam(3, false)
	defer tm.Close()
	keys := make([]int, 200)
	for i := range keys {
		keys[i] = 199 - i
	}
	ob := obs.New(obs.Config{})
	job, s, mem := teamSortJob(keys, 9)
	job.Observer = ob
	met, err := tm.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(met.ByPhase) == 0 {
		t.Fatal("observer produced no phase metrics")
	}
	if len(ob.Incarnations()) != 3 {
		t.Fatalf("incarnations = %d, want 3", len(ob.Incarnations()))
	}
	checkRanks(t, keys, s, mem)

	job2, s2, mem2 := teamSortJob(keys, 10)
	if _, err := tm.Run(job2); err != nil {
		t.Fatal(err)
	}
	checkRanks(t, keys, s2, mem2)
}

// TestTeamSerializesConcurrentUse hammers one team from many
// goroutines through an external mutex (the pooling layer's contract)
// to shake out races between job swaps under the race detector.
func TestTeamSerializesConcurrentUse(t *testing.T) {
	tm := NewTeam(2, true)
	defer tm.Close()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				keys := make([]int, 100+10*g+i)
				for k := range keys {
					keys[k] = (k * 997) % 83
				}
				job, s, mem := teamSortJob(keys, uint64(g*100+i))
				mu.Lock()
				_, err := tm.Run(job)
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				checkRanks(t, keys, s, mem)
			}
		}(g)
	}
	wg.Wait()
}
