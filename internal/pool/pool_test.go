package pool

import (
	"sync"
	"testing"

	"wfsort/internal/core"
	"wfsort/internal/model"
	"wfsort/internal/sizeclass"
)

func testConfig() Config {
	return Config{
		Build: func(capacity int) (Runner, model.Allocator, error) {
			var a model.Arena
			s := core.NewKernel(&a, capacity, 1)
			return s, &a, nil
		},
	}
}

func mustPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGetPutReuse: a returned context is handed back out, and the
// build counter stays flat across the reuse loop.
func TestGetPutReuse(t *testing.T) {
	p := mustPool(t, testConfig())
	c, err := p.Get(100)
	if err != nil {
		t.Fatal(err)
	}
	if c.Capacity != sizeclass.MinClass {
		t.Fatalf("capacity = %d, want %d", c.Capacity, sizeclass.MinClass)
	}
	p.Put(c)
	for i := 0; i < 20; i++ {
		got, err := p.Get(1 + i*10)
		if err != nil {
			t.Fatal(err)
		}
		if got != c {
			t.Fatalf("iteration %d: got a different context", i)
		}
		p.Put(got)
	}
	st := p.Stats()
	if st.Builds != 1 {
		t.Fatalf("builds = %d, want 1", st.Builds)
	}
	if st.Gets != 21 || st.Hits != 20 {
		t.Fatalf("gets=%d hits=%d, want 21 and 20", st.Gets, st.Hits)
	}
}

// TestResetMatchesFresh: after an actual sort mutates the memory, a
// Put+Get round trip must hand back memory byte-identical to a fresh
// build — the zero-steady-state-allocation claim rests on this.
func TestResetMatchesFresh(t *testing.T) {
	p := mustPool(t, testConfig())
	c, err := p.Get(sizeclass.MinClass)
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]model.Word, len(c.Mem))
	copy(fresh, c.Mem)

	// Mutate the whole image as a completed (or abandoned) sort would.
	for i := range c.Mem {
		c.Mem[i] = model.Word(i + 7)
	}
	p.Put(c)
	c2, err := p.Get(sizeclass.MinClass)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c {
		t.Fatal("expected the pooled context back")
	}
	for i := range c2.Mem {
		if c2.Mem[i] != fresh[i] {
			t.Fatalf("mem[%d] = %d after reuse, fresh build has %d", i, c2.Mem[i], fresh[i])
		}
	}
}

// TestClassSelection: requests land in the smallest class that fits.
func TestClassSelection(t *testing.T) {
	p := mustPool(t, testConfig())
	cases := []struct{ n, want int }{
		{1, sizeclass.MinClass},
		{sizeclass.MinClass, sizeclass.MinClass},
		{sizeclass.MinClass + 1, 2 * sizeclass.MinClass},
		{3000, 4096},
		{4096, 4096},
		{4097, 8192},
	}
	for _, tc := range cases {
		c, err := p.Get(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if c.Capacity != tc.want {
			t.Fatalf("Get(%d): capacity %d, want %d", tc.n, c.Capacity, tc.want)
		}
		p.Put(c)
	}
}

// TestOversize: beyond the largest class the pool builds exact-size
// one-offs and never retains them.
func TestOversize(t *testing.T) {
	p := mustPool(t, Config{
		Build: func(capacity int) (Runner, model.Allocator, error) {
			var a model.Arena
			// A flat allocation keeps the huge request cheap for the test.
			s := core.NewKernel(&a, capacity, 1)
			return s, &a, nil
		},
	})
	n := sizeclass.MaxClass + 1
	c, err := p.Get(n)
	if err != nil {
		t.Fatal(err)
	}
	if c.Capacity != n {
		t.Fatalf("oversize capacity = %d, want exact %d", c.Capacity, n)
	}
	p.Put(c)
	st := p.Stats()
	if st.Oversize != 1 || st.Trims != 1 {
		t.Fatalf("oversize=%d trims=%d, want 1 and 1", st.Oversize, st.Trims)
	}
	if p.Idle() != 0 {
		t.Fatalf("idle = %d after oversize Put, want 0", p.Idle())
	}
}

// TestPerClassIdleCap: Puts beyond the idle cap drop contexts.
func TestPerClassIdleCap(t *testing.T) {
	cfg := testConfig()
	cfg.PerClassIdle = 2
	p := mustPool(t, cfg)
	var ctxs []*Ctx
	for i := 0; i < 5; i++ {
		c, err := p.Get(10)
		if err != nil {
			t.Fatal(err)
		}
		ctxs = append(ctxs, c)
	}
	for _, c := range ctxs {
		p.Put(c)
	}
	if got := p.Idle(); got != 2 {
		t.Fatalf("idle = %d, want 2", got)
	}
	st := p.Stats()
	if st.Trims != 3 {
		t.Fatalf("trims = %d, want 3", st.Trims)
	}
}

// TestTrim empties every free list.
func TestTrim(t *testing.T) {
	cfg := testConfig()
	cfg.PerClassIdle = 8
	cfg.Shards = 4
	p := mustPool(t, cfg)
	var ctxs []*Ctx
	for i := 0; i < 6; i++ {
		c, err := p.Get(50)
		if err != nil {
			t.Fatal(err)
		}
		ctxs = append(ctxs, c)
	}
	for _, c := range ctxs {
		p.Put(c)
	}
	if p.Idle() == 0 {
		t.Fatal("expected idle contexts before Trim")
	}
	p.Trim()
	if got := p.Idle(); got != 0 {
		t.Fatalf("idle = %d after Trim, want 0", got)
	}
}

// TestMinCapacity: classes below the floor are dropped so every
// context can host the pool's full worker set.
func TestMinCapacity(t *testing.T) {
	cfg := testConfig()
	cfg.MinCapacity = 1000
	p := mustPool(t, cfg)
	if got := p.MinCapacity(); got != 1024 {
		t.Fatalf("MinCapacity = %d, want 1024", got)
	}
	c, err := p.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Capacity != 1024 {
		t.Fatalf("Get(3) capacity = %d, want 1024", c.Capacity)
	}

	cfg.MinCapacity = 2 * sizeclass.MaxClass
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error when MinCapacity exceeds every class")
	}
}

// TestConcurrentGetPut shakes the sharded free lists under the race
// detector.
func TestConcurrentGetPut(t *testing.T) {
	cfg := testConfig()
	cfg.PerClassIdle = 4
	cfg.Shards = 4
	p := mustPool(t, cfg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c, err := p.Get(1 + (g*50+i)%600)
				if err != nil {
					t.Error(err)
					return
				}
				c.Mem[0] = model.Word(g) // touch it
				p.Put(c)
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Gets != 400 || st.Puts != 400 {
		t.Fatalf("gets=%d puts=%d, want 400 each", st.Gets, st.Puts)
	}
	if st.Hits == 0 {
		t.Fatal("expected free-list hits under reuse")
	}
}
