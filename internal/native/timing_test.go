package native

import (
	"sync"
	"testing"

	"wfsort/internal/core"
	"wfsort/internal/model"
)

// TestTeamRunTiming: a traced job's Timing() splits its run wall into
// per-phase team-wide completions that are consistent: every phase
// named in graph order, no negative durations, and the phase sum
// bounded by the run wall. The team is reused for a second traced job
// so stale stamps from the first cannot leak into it.
func TestTeamRunTiming(t *testing.T) {
	tm := NewTeam(4, true)
	defer tm.Close()

	for run := 0; run < 2; run++ {
		keys := make([]int, 400+100*run)
		for i := range keys {
			keys[i] = (i * 2654435761) % 701
		}
		job, s, mem := teamSortJob(keys, uint64(1+run))
		job.Traced = true
		r := tm.Start(job)
		if _, err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		tm2 := r.Timing()
		if tm2.RunNs <= 0 {
			t.Fatalf("RunNs = %d, want > 0", tm2.RunNs)
		}
		names := job.Graph.WorkerPhaseNames()
		if len(names) == 0 {
			t.Fatal("graph reports no worker phases")
		}
		if len(tm2.Phases) != len(names) {
			t.Fatalf("phases = %d, want %d (%v)", len(tm2.Phases), len(names), tm2.Phases)
		}
		var sum int64
		anyPositive := false
		for i, p := range tm2.Phases {
			if p.Name != names[i] {
				t.Fatalf("phase %d named %q, want %q", i, p.Name, names[i])
			}
			if p.DurNs < 0 {
				t.Fatalf("phase %q duration %d < 0", p.Name, p.DurNs)
			}
			if p.DurNs > 0 {
				anyPositive = true
			}
			sum += p.DurNs
		}
		if !anyPositive {
			t.Fatalf("no phase recorded any time: %+v", tm2.Phases)
		}
		// Phase completions are stamped between Start and the last
		// worker's exit, so their telescoping sum cannot exceed the wall.
		if sum > tm2.RunNs {
			t.Fatalf("phase sum %dns exceeds run wall %dns", sum, tm2.RunNs)
		}
		checkRanks(t, keys, s, mem)
	}
}

// TestTeamRunTimingUntraced: an untraced job stamps nothing and
// reports nothing — the zero JobTiming.
func TestTeamRunTimingUntraced(t *testing.T) {
	tm := NewTeam(2, false)
	defer tm.Close()

	keys := []int{5, 3, 9, 1, 7, 2}
	job, _, _ := teamSortJob(keys, 2)
	r := tm.Start(job)
	if _, err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if r.jb.phaseEnd != nil {
		t.Fatal("untraced job allocated phase stamps")
	}
	if tm := r.Timing(); tm.RunNs != 0 || len(tm.Phases) != 0 {
		t.Fatalf("untraced Timing() = %+v, want zero value", tm)
	}
}

// TestNotifyMonotonePerIncarnation is the property the team's phase
// stamps rely on: under deterministic kill/respawn schedules, the
// sequence of phase-completion indices a worker notifies is, within
// each incarnation, strictly increasing from 0 — a killed worker's next
// incarnation re-enters the graph from the top. The recorded stream per
// worker must therefore parse as at most 1+respawns(pid) strictly
// increasing runs, each starting at 0, and the never-killed worker's
// final run must reach the last phase.
func TestNotifyMonotonePerIncarnation(t *testing.T) {
	for _, tc := range []struct {
		seed  uint64
		kills map[int]int64 // pid -> kill ordinal (revived once)
	}{
		{seed: 1, kills: map[int]int64{1: 5, 2: 900, 3: 40}},
		{seed: 2, kills: map[int]int64{1: 2, 3: 3000}},
		{seed: 3, kills: map[int]int64{2: 77, 3: 78, 1: 400}},
	} {
		keys := make([]int, 500)
		for i := range keys {
			keys[i] = (i*48271 + int(tc.seed)) % 337
		}
		var a model.Arena
		s := core.NewSorter(&a, len(keys), core.AllocRandomized)
		less := func(i, j int) bool {
			ki, kj := keys[i-1], keys[j-1]
			if ki != kj {
				return ki < kj
			}
			return i < j
		}
		plan := NewPlan()
		for pid, op := range tc.kills {
			plan.KillAt(pid, op).Revive(pid, 1)
		}
		var mu sync.Mutex
		notified := make([][]int, 4)
		mem := make([]Word, a.Size())
		s.Seed(mem)
		tm := NewTeam(4, false)
		met, err := tm.Run(TeamJob{Mem: mem, Seed: tc.seed, Less: less, Adversary: plan, Graph: graphOf(func(p model.Proc) {
			pid := p.ID()
			s.Graph().RunNotify(p, func(k int) {
				mu.Lock()
				notified[pid] = append(notified[pid], k)
				mu.Unlock()
			})
		})})
		tm.Close()
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		last := s.Graph().NumWorkerPhases() - 1
		for pid := 0; pid < 4; pid++ {
			runs := 0
			prev := -1
			for _, k := range notified[pid] {
				if k == 0 && prev != -1 {
					runs++
					prev = 0
					continue
				}
				if k != prev+1 {
					t.Fatalf("seed %d pid %d: notify sequence %v not strictly increasing runs from 0",
						tc.seed, pid, notified[pid])
				}
				prev = k
			}
			if len(notified[pid]) > 0 {
				runs++
			}
			maxRuns := 1
			if _, killed := tc.kills[pid]; killed {
				maxRuns = 2 // one revival per kill in these schedules
			}
			if runs > maxRuns {
				t.Fatalf("seed %d pid %d: %d incarnation runs (max %d): %v",
					tc.seed, pid, runs, maxRuns, notified[pid])
			}
		}
		// pid 0 is never struck: it must have walked the whole graph.
		n0 := notified[0]
		if len(n0) == 0 || n0[len(n0)-1] != last {
			t.Fatalf("seed %d: unkilled pid 0 ended at %v, want final phase %d", tc.seed, n0, last)
		}
		if met.Respawns == 0 {
			t.Fatalf("seed %d: expected respawns", tc.seed)
		}
	}
}
