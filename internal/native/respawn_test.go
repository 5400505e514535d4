package native

import (
	"sync/atomic"
	"testing"

	"wfsort/internal/model"
)

// heldRespawner revives a landed kill only once the controller
// releases it: Respawn reports the death on dead, then blocks until
// release closes, as a kernel handing a processor back would.
type heldRespawner struct {
	dead    chan int
	release chan struct{}
}

func (r *heldRespawner) Strike(int, int64) model.Fault { return model.Fault{} }

func (r *heldRespawner) Respawn(pid, deaths int) bool {
	r.dead <- pid
	<-r.release
	return true
}

// TestRespawnHelpsFinish kills a worker mid-job and revives it through
// a Respawner that blocks until the controller hands the processor
// back. The survivors can only finish after the revived incarnation's
// write, so the job completes only if the revival ran and Wait waited
// for it.
func TestRespawnHelpsFinish(t *testing.T) {
	const p = 4
	tm := NewTeam(p, true)
	defer tm.Close()
	adv := &heldRespawner{dead: make(chan int, 1), release: make(chan struct{})}
	var restarted atomic.Int64
	started := make(chan struct{}) // worker 0's first incarnation is up
	mem := make([]Word, 1)
	run := tm.Start(TeamJob{Mem: mem, Adversary: adv, Graph: graphOf(func(pr model.Proc) {
		if pr.ID() == 0 {
			if restarted.Add(1) == 1 {
				// First incarnation: signal the controller and spin
				// until killed.
				close(started)
				for {
					pr.Idle()
				}
			}
			// Second incarnation: do one op and finish.
			pr.Write(0, 1)
			return
		}
		// The survivors wait for the revived incarnation's write.
		for pr.Read(0) != 1 {
		}
	})})
	<-started
	tm.Kill(0)
	if pid := <-adv.dead; pid != 0 {
		t.Errorf("Respawn asked for pid %d, want 0", pid)
	}
	close(adv.release) // hand the processor back
	met, err := run.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if met.Killed != 1 || met.Respawns != 1 {
		t.Errorf("killed=%d respawns=%d, want 1/1", met.Killed, met.Respawns)
	}
	if restarted.Load() != 2 {
		t.Errorf("worker 0 ran %d times, want 2", restarted.Load())
	}
	if mem[0] != 1 {
		t.Errorf("mem[0] = %d, want the revived incarnation's 1", mem[0])
	}
}
