package native

import (
	"sync/atomic"
	"testing"
	"time"

	"wfsort/internal/model"
)

// TestRespawnHelpsFinish kills a worker mid-run and respawns it; the
// respawned worker must participate (its ops count) and the run must
// complete.
func TestRespawnHelpsFinish(t *testing.T) {
	const p = 4
	rt := New(Config{P: p, Mem: 1, CountOps: true})
	var restarted atomic.Int64
	started := make(chan struct{})   // worker 0's first incarnation is up
	respawned := make(chan struct{}) // controller finished kill+respawn
	go func() {
		defer close(respawned)
		<-started
		rt.Kill(0)
		// Wait until the kill lands (worker 0 unwinds) before reviving.
		for {
			rt.mu.Lock()
			live := rt.live
			rt.mu.Unlock()
			if live == p-1 {
				break
			}
			time.Sleep(10 * time.Microsecond)
		}
		if err := rt.Respawn(0); err != nil {
			t.Errorf("Respawn: %v", err)
		}
	}()
	met, err := rt.Run(func(pr model.Proc) {
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
		// Other workers block until the controller has respawned worker
		// 0, then wait for its write.
		<-respawned
		for pr.Read(0) != 1 {
		}
	})
	<-respawned
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if met.Killed != 1 {
		t.Errorf("killed = %d, want 1", met.Killed)
	}
	if restarted.Load() != 2 {
		t.Errorf("worker 0 ran %d times, want 2", restarted.Load())
	}
}

func TestRespawnAfterRunRejected(t *testing.T) {
	rt := New(Config{P: 2, Mem: 1})
	if _, err := rt.Run(func(model.Proc) {}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Respawn(0); err == nil {
		t.Error("respawn after completion accepted")
	}
}

func TestRespawnBadPID(t *testing.T) {
	rt := New(Config{P: 2, Mem: 1})
	if err := rt.Respawn(7); err == nil {
		t.Error("out-of-range pid accepted")
	}
}
