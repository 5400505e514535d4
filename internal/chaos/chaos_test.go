package chaos

import (
	"fmt"
	"strings"
	"testing"

	"wfsort/internal/model"
)

// TestDifferentialCrashSchedule is the cross-runtime acceptance check:
// the same seeded crash schedule pushed through the simulator and the
// native runtime yields identical, correct sorted output at P in
// {2, 4, 8}, with every scheduled kill landed. A kill scheduled past
// its victim's last operation never lands, and must fail the check.
func TestDifferentialCrashSchedule(t *testing.T) {
	keys := randKeys(1024, 0xd1ff)
	for _, p := range []int{2, 4, 8} {
		crashes := CrashQuorum(p, 0.5, killWindow, 0xc0de+uint64(p))
		if _, err := Differential(keys, p, 42, crashes); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
	}
	late := []model.Crash{{PID: 1, Step: 1 << 40}}
	if res, err := Differential(keys, 4, 42, late); err == nil || res.Killed != 0 {
		t.Errorf("a kill that never lands: killed %d, err %v; want 0 and an error", res.Killed, err)
	}
}

// TestDifferentialFaultless covers the no-crash baseline of the same
// cross-runtime check.
func TestDifferentialFaultless(t *testing.T) {
	keys := randKeys(512, 7)
	for _, p := range []int{2, 4} {
		if _, err := Differential(keys, p, 1, nil); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
	}
}

// TestSweepDifferentialLandsEveryKill reads the sweep's differential
// lines at P in {2, 4, 8} over three seeds: each must report its kills
// landed, every scheduled kill must have landed, and some must have
// been scheduled. A quorum drawn from N op ordinals lands about half.
func TestSweepDifferentialLandsEveryKill(t *testing.T) {
	scheduled := 0
	for seed := uint64(1); seed <= 3; seed++ {
		rep, err := Sweep(SweepOptions{N: 1024, Ps: []int{2, 4, 8}, Seed: seed, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Differential) != 3 {
			t.Fatalf("seed %d: %d differentials passed, want 3; failures: %v", seed, len(rep.Differential), rep.Failures)
		}
		for _, line := range rep.Differential {
			var p, landed, sched int
			if _, err := fmt.Sscanf(line, "p=%d kills %d/%d landed", &p, &landed, &sched); err != nil {
				t.Fatalf("seed %d: differential line %q: %v", seed, line, err)
			}
			if landed != sched {
				t.Errorf("seed %d p=%d: %d of %d scheduled kills landed", seed, p, landed, sched)
			}
			scheduled += sched
		}
	}
	if scheduled == 0 {
		t.Fatal("no differential scheduled a kill")
	}
}

// TestMassacreCertifies kills every processor but one; every kill must
// land, and the lone mandated survivor must still finish under the op
// ceiling.
func TestMassacreCertifies(t *testing.T) {
	keys := randKeys(1024, 3)
	const p = 4
	spec := BuildSpec(keys, p, 9, Policy{Name: "crash-all-but-one", AllButOne: true})
	res, err := RunNative(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sorted {
		t.Errorf("output not sorted (%s)", res.Error)
	}
	if !res.Certified {
		t.Errorf("max ops %d exceeds bound %d", res.MaxOps, res.Bound)
	}
	if res.Killed != p-1 || res.Scheduled != p-1 {
		t.Errorf("killed %d of %d scheduled, want %d", res.Killed, res.Scheduled, p-1)
	}
	if res.Sized != len(keys) || res.Placed != len(keys) {
		t.Errorf("progress sized=%d placed=%d, want %d", res.Sized, res.Placed, len(keys))
	}
}

// TestRunResidentCrashHalf is the resident-team acceptance battery: a
// stream of sorts on one resident team, half the workers crashed in
// alternate jobs, every job sorted and certified.
func TestRunResidentCrashHalf(t *testing.T) {
	results, err := RunResident(ResidentSpec{
		N: 1024, P: 4, Jobs: 5, Seed: 21, Frac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results, want 5", len(results))
	}
	kills := 0
	for j, res := range results {
		if !res.OK() {
			t.Errorf("job %d: sorted=%v certified=%v (max ops %d / bound %d) %s",
				j, res.Sorted, res.Certified, res.MaxOps, res.Bound, res.Error)
		}
		if j%2 == 1 && res.Killed != 0 {
			t.Errorf("faultless job %d saw %d kills — faults leaked across jobs", j, res.Killed)
		}
		kills += res.Killed
	}
	if kills == 0 {
		t.Fatal("crash-half plans landed no kills")
	}
}

// TestReviveAndStallPolicies exercises the respawning and stalling
// adversaries end to end via BuildSpec.
func TestReviveAndStallPolicies(t *testing.T) {
	keys := randKeys(1024, 11)
	revive := BuildSpec(keys, 4, 5, Policy{Name: "crash-revive", Frac: 0.5, Revives: 1})
	res, err := RunNative(revive)
	if err != nil {
		t.Fatalf("crash-revive: %v", err)
	}
	if !res.OK() {
		t.Errorf("crash-revive not OK: sorted=%v certified=%v err=%q", res.Sorted, res.Certified, res.Error)
	}
	if res.Killed != res.Scheduled || res.Respawns != res.Killed {
		t.Errorf("crash-revive: %d of %d scheduled kills landed, %d respawns", res.Killed, res.Scheduled, res.Respawns)
	}

	storm := BuildSpec(keys, 4, 5, Policy{Name: "stall-storm", StallStorm: true})
	res, err = RunNative(storm)
	if err != nil {
		t.Fatalf("stall-storm: %v", err)
	}
	if !res.OK() {
		t.Errorf("stall-storm not OK: sorted=%v certified=%v err=%q", res.Sorted, res.Certified, res.Error)
	}
	if res.Stalls == 0 {
		t.Errorf("stall-storm injected no stalls")
	}
}

func TestCrashQuorumSparesProcessorZero(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		for _, c := range CrashQuorum(8, 1.0, 100, seed) {
			if c.PID == 0 {
				t.Fatalf("seed %d: quorum kills processor 0", seed)
			}
		}
	}
}

func TestMassacreShape(t *testing.T) {
	crashes := Massacre(8, 64)
	if len(crashes) != 7 {
		t.Fatalf("massacre of 8 schedules %d kills, want 7", len(crashes))
	}
	seen := map[int]bool{}
	for _, c := range crashes {
		if c.PID == 0 {
			t.Errorf("massacre kills processor 0")
		}
		if c.Step < 1 || c.Step >= 64 {
			t.Errorf("pid %d: step %d outside window [1, 64)", c.PID, c.Step)
		}
		seen[c.PID] = true
	}
	if len(seen) != 7 {
		t.Errorf("massacre targets %d distinct pids, want 7", len(seen))
	}
}

func TestOutputOfValidatesPermutation(t *testing.T) {
	keys := []int{30, 10, 20}
	out, err := outputOf(keys, []int{3, 1, 2})
	if err != nil {
		t.Fatalf("valid permutation rejected: %v", err)
	}
	if !equalInts(out, []int{10, 20, 30}) {
		t.Errorf("out = %v, want [10 20 30]", out)
	}
	for _, bad := range [][]int{
		{1, 1, 2}, // duplicate rank
		{0, 1, 2}, // rank below 1
		{1, 2, 4}, // rank above n
	} {
		if _, err := outputOf(keys, bad); err == nil {
			t.Errorf("places %v accepted, want permutation error", bad)
		}
	}
}

func TestBoundMonotonic(t *testing.T) {
	if Bound(1024) >= Bound(4096) {
		t.Errorf("bound not monotonic in n: %d vs %d", Bound(1024), Bound(4096))
	}
	if Bound(0) <= 0 {
		t.Errorf("bound for n=0 is %d, want positive (constant term)", Bound(0))
	}
}

// TestSweepQuick runs the small sweep the CI smoke job uses and
// requires a clean report.
func TestSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	rep, err := Sweep(SweepOptions{N: 512, Ps: []int{2, 4}, Seed: 21})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if !rep.OK {
		t.Fatalf("sweep failures:\n%s", strings.Join(rep.Failures, "\n"))
	}
	// policy x P cells, plus the resident battery's 4 jobs per P.
	wantRuns := (len(Policies()) + 4) * 2
	if len(rep.Runs) != wantRuns {
		t.Errorf("sweep produced %d runs, want %d", len(rep.Runs), wantRuns)
	}
	if len(rep.Differential) != 2 {
		t.Errorf("sweep ran %d differentials, want 2", len(rep.Differential))
	}
	for _, r := range rep.Runs {
		if r.Policy == "" {
			t.Errorf("run missing policy label: %+v", r)
		}
	}
}

// TestSpecPlanNilWhenFaultless pins the nil-adversary fast path: a
// faultless spec must hand the runtime a nil interface, not a typed nil.
func TestSpecPlanNilWhenFaultless(t *testing.T) {
	if pl := (Spec{}).plan(); pl != nil {
		t.Errorf("faultless spec compiled a plan")
	}
	if adv := adversaryOrNil(nil); adv != nil {
		t.Errorf("adversaryOrNil(nil) is a non-nil interface")
	}
	spec := Spec{Crashes: []model.Crash{{Step: 1, PID: 1}}}
	if spec.plan() == nil {
		t.Errorf("crashing spec compiled no plan")
	}
}
