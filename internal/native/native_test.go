package native

import (
	"sync/atomic"
	"testing"
	"time"

	"wfsort/internal/engine"
	"wfsort/internal/model"
)

// graphOf wraps an ad-hoc program in a one-phase graph a Team can run.
func graphOf(prog model.Program) *engine.Graph {
	return engine.New("test").Add(engine.Phase{Name: "test", Quiet: true, Body: func(p model.Proc, _ any) { prog(p) }})
}

func TestAllProcessorsRun(t *testing.T) {
	const p = 8
	tm := NewTeam(p, false)
	defer tm.Close()
	mem := make([]Word, p)
	_, err := tm.Run(TeamJob{Mem: mem, Graph: graphOf(func(pr model.Proc) {
		pr.Write(pr.ID(), model.Word(pr.ID()+1))
	})})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < p; i++ {
		if mem[i] != model.Word(i+1) {
			t.Errorf("mem[%d] = %d, want %d", i, mem[i], i+1)
		}
	}
}

func TestCASExactlyOneWinner(t *testing.T) {
	const p = 16
	tm := NewTeam(p, false)
	defer tm.Close()
	mem := make([]Word, 1+p)
	_, err := tm.Run(TeamJob{Mem: mem, Graph: graphOf(func(pr model.Proc) {
		if pr.CAS(0, model.Empty, model.Word(pr.ID()+1)) {
			pr.Write(1+pr.ID(), 1)
		}
	})})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	winners := 0
	for i := 0; i < p; i++ {
		if mem[1+i] == 1 {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("CAS winners = %d, want 1", winners)
	}
}

func TestKillUnwindsProcessor(t *testing.T) {
	const p = 4
	tm := NewTeam(p, false)
	defer tm.Close()
	mem := make([]Word, p)
	var entered atomic.Int64
	done := make(chan struct{})
	run := tm.Start(TeamJob{Mem: mem, Graph: graphOf(func(pr model.Proc) {
		if pr.ID() == 0 {
			entered.Add(1)
			<-done
			for {
				pr.Idle() // kill flag is checked here; must unwind
			}
		}
		pr.Write(pr.ID(), 1)
	})})
	// Reap processor 0 once it has started working.
	for entered.Load() == 0 {
		time.Sleep(time.Microsecond)
	}
	tm.Kill(0)
	close(done)
	met, err := run.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if met.Killed != 1 {
		t.Errorf("killed = %d, want 1", met.Killed)
	}
	for i := 1; i < p; i++ {
		if mem[i] != 1 {
			t.Errorf("survivor %d did not finish", i)
		}
	}
}

func TestOpCounting(t *testing.T) {
	tm := NewTeam(3, true)
	defer tm.Close()
	met, err := tm.Run(TeamJob{Mem: make([]Word, 1), Graph: graphOf(func(pr model.Proc) {
		for i := 0; i < 5; i++ {
			pr.Read(0)
		}
	})})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if met.Ops != 15 {
		t.Errorf("ops = %d, want 15", met.Ops)
	}
}

func TestPanicPropagates(t *testing.T) {
	tm := NewTeam(2, false)
	defer tm.Close()
	_, err := tm.Run(TeamJob{Mem: make([]Word, 1), Graph: graphOf(func(pr model.Proc) {
		if pr.ID() == 1 {
			panic("kaboom")
		}
	})})
	if err == nil {
		t.Fatal("panic was swallowed")
	}
}

func TestLessTieBreak(t *testing.T) {
	tm := NewTeam(1, false)
	defer tm.Close()
	_, err := tm.Run(TeamJob{
		Mem:  make([]Word, 1),
		Less: func(i, j int) bool { return false },
		Graph: graphOf(func(pr model.Proc) {
			if pr.Less(3, 3) {
				t.Error("Less(i,i) must be false")
			}
		}),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
