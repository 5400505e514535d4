package native

import (
	"testing"

	"wfsort/internal/model"
)

// reader returns a program in which every processor performs `ops`
// reads of word 0 and returns.
func reader(ops int) model.Program {
	return func(pr model.Proc) {
		for i := 0; i < ops; i++ {
			pr.Read(0)
		}
	}
}

// runReader runs reader(ops) as one job under plan on a fresh counting
// team of p workers and returns the job's metrics and per-worker ops.
func runReader(t *testing.T, p, ops int, plan *Plan) (*model.Metrics, []int64) {
	t.Helper()
	tm := NewTeam(p, true)
	defer tm.Close()
	run := tm.Start(TeamJob{Graph: graphOf(reader(ops)), Mem: make([]Word, 1), Adversary: plan})
	met, err := run.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return met, run.OpsPerProc()
}

// TestPlanKillsAtExactOpCount pins the plan's clock: a kill at ordinal
// k replaces the k-th operation, so the victim executes exactly k-1.
func TestPlanKillsAtExactOpCount(t *testing.T) {
	plan := NewPlan().KillAt(0, 5)
	met, ops := runReader(t, 2, 10, plan)
	if met.Killed != 1 {
		t.Fatalf("killed = %d, want 1", met.Killed)
	}
	if ops[0] != 4 {
		t.Errorf("victim executed %d ops, want 4 (killed in place of op 5)", ops[0])
	}
	if ops[1] != 10 {
		t.Errorf("survivor executed %d ops, want 10", ops[1])
	}
}

// TestPlanCrashSpecMapping checks the shared Crash vocabulary: Step 0
// kills at the first operation, exactly as pram's "first step >= Step".
func TestPlanCrashSpecMapping(t *testing.T) {
	plan := PlanCrashes([]model.Crash{{Step: 0, PID: 1}, {Step: 3, PID: 2}})
	met, ops := runReader(t, 3, 8, plan)
	if met.Killed != 2 {
		t.Fatalf("killed = %d, want 2", met.Killed)
	}
	if ops[1] != 0 {
		t.Errorf("pid 1 executed %d ops, want 0 (Step 0 kills at the first op)", ops[1])
	}
	if ops[2] != 2 {
		t.Errorf("pid 2 executed %d ops, want 2 (killed in place of op 3)", ops[2])
	}
	if ops[0] != 8 {
		t.Errorf("survivor executed %d ops, want 8", ops[0])
	}
}

// TestPlanStallCountsAndCompletes verifies stalls are injected, counted
// and harmless to completion.
func TestPlanStallCountsAndCompletes(t *testing.T) {
	plan := NewPlan().StallAt(0, 2, 4).StallAt(1, 3, 1)
	met, ops := runReader(t, 2, 6, plan)
	if met.InjectedStalls != 2 {
		t.Errorf("injected stalls = %d, want 2", met.InjectedStalls)
	}
	if met.Killed != 0 {
		t.Errorf("killed = %d, want 0", met.Killed)
	}
	for pid, n := range ops {
		if n != 6 {
			t.Errorf("pid %d executed %d ops, want 6 (stalls cost no ops)", pid, n)
		}
	}
}

// TestPlanReviveContinuesOpOrdinals kills a worker twice with revival:
// each incarnation reruns the program, and the adversary clock carries
// across incarnations so the second kill targets the cumulative count.
func TestPlanReviveContinuesOpOrdinals(t *testing.T) {
	plan := NewPlan().KillAt(0, 3).KillAt(0, 8).Revive(0, 2)
	met, ops := runReader(t, 2, 10, plan)
	if met.Killed != 2 {
		t.Errorf("killed = %d, want 2", met.Killed)
	}
	if met.Respawns != 2 {
		t.Errorf("respawns = %d, want 2", met.Respawns)
	}
	// Incarnation 1 executes ordinals 1-2 (killed at 3); incarnation 2
	// executes 4-7 (killed at 8); incarnation 3 runs the full program,
	// ordinals 9-18. Executed ops: 2 + 4 + 10.
	if ops[0] != 16 {
		t.Errorf("pid 0 executed %d ops across incarnations, want 16", ops[0])
	}
}

// TestPlanDeterministicOpCounts runs the same plan twice: per-processor
// executed-op counts are anchored to each processor's own clock, so
// they must be identical run to run regardless of OS scheduling.
func TestPlanDeterministicOpCounts(t *testing.T) {
	run := func() []int64 {
		plan := NewPlan().KillAt(1, 7).KillAt(2, 1).StallAt(0, 5, 2)
		_, ops := runReader(t, 4, 20, plan)
		return ops
	}
	a, b := run(), run()
	for pid := range a {
		if a[pid] != b[pid] {
			t.Errorf("pid %d: op counts diverged across runs: %d vs %d", pid, a[pid], b[pid])
		}
	}
}
