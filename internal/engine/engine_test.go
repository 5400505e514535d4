package engine_test

import (
	"sync"
	"testing"

	"wfsort/internal/engine"
	"wfsort/internal/model"
	"wfsort/internal/pram"
	"wfsort/internal/xrand"
)

// fakeProc is a minimal single-processor model.Proc over a private
// memory image, for engine mechanics that need no machine semantics.
type fakeProc struct {
	mem    []model.Word
	phases []string
	rng    *xrand.Rand
}

func (f *fakeProc) ID() int               { return 0 }
func (f *fakeProc) NumProcs() int         { return 1 }
func (f *fakeProc) Read(a int) model.Word { return f.mem[a] }
func (f *fakeProc) Write(a int, v model.Word) {
	f.mem[a] = v
}
func (f *fakeProc) CAS(a int, old, new model.Word) bool {
	if f.mem[a] != old {
		return false
	}
	f.mem[a] = new
	return true
}
func (f *fakeProc) Idle()              {}
func (f *fakeProc) Less(i, j int) bool { return i < j }
func (f *fakeProc) Rand() *model.Rng   { return f.rng }
func (f *fakeProc) Phase(name string)  { f.phases = append(f.phases, name) }

func newFake(mem int) *fakeProc {
	return &fakeProc{mem: make([]model.Word, mem), rng: xrand.New(1)}
}

// TestRunOrderAndLabels pins the execution contract: worker phases run
// in declaration order, each preceded by exactly one Phase label unless
// Quiet, and host-only phases (nil Body) are skipped entirely.
func TestRunOrderAndLabels(t *testing.T) {
	var order []string
	g := engine.New("t").
		Add(engine.Phase{Name: "a", Body: func(p model.Proc, _ any) { order = append(order, "a") }}).
		Add(engine.Phase{Name: "host", Done: func(mem []model.Word) bool { return true }}).
		Add(engine.Phase{Name: "b", Quiet: true, Body: func(p model.Proc, _ any) { order = append(order, "b") }}).
		Add(engine.Phase{Name: "c", Body: func(p model.Proc, _ any) { order = append(order, "c") }})

	if got := g.NumWorkerPhases(); got != 3 {
		t.Fatalf("NumWorkerPhases = %d, want 3", got)
	}
	f := newFake(4)
	g.Run(f)
	if want := []string{"a", "b", "c"}; !equal(order, want) {
		t.Fatalf("bodies ran %v, want %v", order, want)
	}
	// Quiet phase b and host phase emit no label.
	if want := []string{"a", "c"}; !equal(f.phases, want) {
		t.Fatalf("labels %v, want %v", f.phases, want)
	}
}

// TestNotifyIndices pins RunNotify's contract: indices count worker
// phases from 0 in order, skipping host-only phases.
func TestNotifyIndices(t *testing.T) {
	g := engine.New("t").
		Add(engine.Phase{Name: "a", Body: func(model.Proc, any) {}}).
		Add(engine.Phase{Name: "host"}).
		Add(engine.Phase{Name: "b", Body: func(model.Proc, any) {}})
	var ks []int
	g.RunNotify(newFake(1), func(k int) { ks = append(ks, k) })
	if len(ks) != 2 || ks[0] != 0 || ks[1] != 1 {
		t.Fatalf("notify indices %v, want [0 1]", ks)
	}
}

// TestStateCarriesAcrossPhases verifies the per-execution state value:
// each execution gets a fresh one, and it threads through every phase.
func TestStateCarriesAcrossPhases(t *testing.T) {
	type locals struct{ v int }
	g := engine.New("t").
		WithState(func() any { return &locals{} }).
		Add(engine.Phase{Name: "set", Body: func(p model.Proc, st any) { st.(*locals).v = p.ID() + 7 }}).
		Add(engine.Phase{Name: "use", Body: func(p model.Proc, st any) {
			p.Write(p.ID(), model.Word(st.(*locals).v))
		}})

	m := pram.New(pram.Config{P: 4, Mem: 8, Seed: 1})
	if _, err := m.Run(g.Program()); err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 4; pid++ {
		if got := m.Memory()[pid]; got != model.Word(pid+7) {
			t.Fatalf("pid %d carried %d, want %d", pid, got, pid+7)
		}
	}
}

// TestDoneAndFirstUndone exercises the host-side completion
// predicates.
func TestDoneAndFirstUndone(t *testing.T) {
	g := engine.New("t").
		Add(engine.Phase{Name: "one", Body: func(model.Proc, any) {}, Done: func(mem []model.Word) bool { return mem[0] != 0 }}).
		Add(engine.Phase{Name: "two", Body: func(model.Proc, any) {}, Done: func(mem []model.Word) bool { return mem[1] != 0 }})
	mem := make([]model.Word, 2)
	if g.Done(mem) {
		t.Fatal("Done on empty memory")
	}
	if got := g.FirstUndone(mem); got != "one" {
		t.Fatalf("FirstUndone = %q, want %q", got, "one")
	}
	mem[0] = 1
	if got := g.FirstUndone(mem); got != "two" {
		t.Fatalf("FirstUndone = %q, want %q", got, "two")
	}
	mem[1] = 1
	if !g.Done(mem) || g.FirstUndone(mem) != "" {
		t.Fatal("predicates should all pass")
	}
}

// TestEmbedRunsSubgraphUnderSubProc verifies the §3-style embedding: an
// outer Quiet phase runs an inner graph through a prefixing SubProc, so
// the simulator attributes the inner ops to the prefixed labels and the
// outer phase itself adds no label — exactly the seed behavior of
// lowcont's phase A.
func TestEmbedRunsSubgraphUnderSubProc(t *testing.T) {
	inner := engine.New("inner").
		Add(engine.Phase{Name: "1:work", Body: func(p model.Proc, _ any) { p.Write(p.ID(), 1) }})
	outer := engine.New("outer").
		Add(engine.Phase{Name: "A:inner", Quiet: true, Body: engine.Embed(func(p model.Proc) (*engine.Graph, model.Proc) {
			return inner, model.NewSubProc(p, p.ID(), p.NumProcs(), 0, "A:")
		})}).
		Add(engine.Phase{Name: "B:after", Body: func(p model.Proc, _ any) { p.Idle() }})

	m := pram.New(pram.Config{P: 2, Mem: 4, Seed: 1})
	met, err := m.Run(outer.Program())
	if err != nil {
		t.Fatal(err)
	}
	names := met.PhaseNames()
	if want := []string{"A:1:work", "B:after"}; !equal(names, want) {
		t.Fatalf("phase labels %v, want %v", names, want)
	}
}

// TestGraphIsStatelessAcrossConcurrentRuns runs one graph from many
// goroutines at once; per-execution state must not bleed.
func TestGraphIsStatelessAcrossConcurrentRuns(t *testing.T) {
	type locals struct{ v int }
	g := engine.New("t").
		WithState(func() any { return &locals{} }).
		Add(engine.Phase{Name: "set", Body: func(p model.Proc, st any) { st.(*locals).v = int(p.Read(0)) }}).
		Add(engine.Phase{Name: "check", Body: func(p model.Proc, st any) { p.Write(1, model.Word(st.(*locals).v)) }})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := newFake(2)
			f.mem[0] = model.Word(i)
			g.Run(f)
			if f.mem[1] != model.Word(i) {
				t.Errorf("run %d saw state %d", i, f.mem[1])
			}
		}(i)
	}
	wg.Wait()
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
