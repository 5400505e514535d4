package obs_test

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"wfsort/internal/core"
	"wfsort/internal/harness"
	"wfsort/internal/model"
	"wfsort/internal/native"
	"wfsort/internal/obs"
)

// TestWatchdogFlagsPermanentStall injects a permanent stall
// (Plan.BlockAt) into a native run and checks the watchdog flags the
// blocked processor while it is still live. The monitor kills the
// blocked pid once the violation is recorded so the run can complete —
// which is also the operational loop the watchdog exists for.
func TestWatchdogFlagsPermanentStall(t *testing.T) {
	const n, p = 256, 4
	keys := harness.MakeKeys(harness.InputRandom, n, 1)
	var a model.Arena
	s := core.NewSorter(&a, n, core.AllocRandomized)

	// 3 x 10ms of stillness flags a stall. The healthy workers finish
	// the whole sort well before the first poll, so only the blocked
	// processor can be live-and-still; a tighter interval would risk
	// flagging a healthy goroutine the OS descheduled on a loaded CI
	// machine.
	ob := obs.New(obs.Config{
		SnapshotEvery:  16,
		Watchdog:       10 * time.Millisecond,
		StallIntervals: 3,
	})
	pl := native.NewPlan().BlockAt(1, 50)
	mem := make([]model.Word, a.Size())
	s.Seed(mem)
	team := native.NewTeam(p, true)
	defer team.Close()
	run := team.Start(native.TeamJob{
		Graph: s.Graph(), Mem: mem, Seed: 1, Less: harness.LessFor(keys),
		Adversary: pl, Observer: ob,
	})

	// Kill the blocked pid once the watchdog flags it, or after 20 s to
	// unwedge the run even if the watchdog never fires.
	for deadline := time.Now().Add(20 * time.Second); len(ob.Violations()) == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	team.Kill(1)
	if _, err := run.Wait(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	vs := ob.Violations()
	if len(vs) == 0 {
		t.Fatal("watchdog never flagged the blocked processor")
	}
	for _, v := range vs {
		if v.PID != 1 {
			t.Errorf("violation on pid %d, want only pid 1: %+v", v.PID, v)
		}
		if v.Stuck <= 0 {
			t.Errorf("violation with non-positive stuck duration: %+v", v)
		}
	}
	// The survivors must still have finished the sort.
	ranks := s.Places(mem)
	out := make([]int, n)
	for i, r := range ranks {
		out[r-1] = keys[i]
	}
	if !sort.IntsAreSorted(out) {
		t.Error("survivors did not finish the sort")
	}
}

// TestWatchdogSilentOnFaultlessRun runs clean with the watchdog armed:
// no violations may appear, or the detector is useless noise.
func TestWatchdogSilentOnFaultlessRun(t *testing.T) {
	const n, p = 2048, 4
	keys := harness.MakeKeys(harness.InputRandom, n, 2)
	var a model.Arena
	s := core.NewSorter(&a, n, core.AllocRandomized)

	ob := obs.New(obs.Config{
		SnapshotEvery:  16,
		Watchdog:       20 * time.Millisecond,
		StallIntervals: 5,
	})
	mem := make([]model.Word, a.Size())
	s.Seed(mem)
	team := native.NewTeam(p, false)
	defer team.Close()
	if _, err := team.Run(native.TeamJob{
		Graph: s.Graph(), Mem: mem, Seed: 2, Less: harness.LessFor(keys), Observer: ob,
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if vs := ob.Violations(); len(vs) != 0 {
		t.Fatalf("faultless run produced violations: %+v", vs)
	}
	snap := ob.Snapshot()
	if !snap.Finished || snap.Events == 0 {
		t.Errorf("snapshot after run: %+v", snap)
	}
}

// TestRunEndStopsUnstartedWatchdog ends runs before their watchdog
// goroutine is first scheduled, the common order at GOMAXPROCS(1). The
// watchdog must get its stop channel from RunStart, not read it once
// it runs: by then RunEnd has cleared it, the watchdog waits on a nil
// channel, and RunEnd waits for the watchdog forever.
func TestRunEndStopsUnstartedWatchdog(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 20; i++ {
		ob := obs.New(obs.Config{Watchdog: time.Millisecond})
		done := make(chan struct{})
		go func() {
			ob.RunStart(2)
			ob.RunEnd()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("run %d: RunEnd still waiting on the watchdog after 5s", i)
		}
	}
}
