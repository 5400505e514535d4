package wfsort

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfsort/internal/sizeclass"
)

func randSlice(rng *rand.Rand, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = rng.Intn(n/2 + 1) // duplicates on purpose
	}
	return s
}

func checkSorted(t *testing.T, got, orig []int) {
	t.Helper()
	want := append([]int(nil), orig...)
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("length changed: %d -> %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestSorterReuse drives one Sorter across many sizes and checks every
// output, then that the build counter stayed at one per touched class.
func TestSorterReuse(t *testing.T) {
	s, err := NewSorter[int](WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	classes := map[int]bool{}
	for i := 0; i < 30; i++ {
		n := 65 + rng.Intn(2000)
		cap, _ := sizeclass.For(n)
		classes[cap] = true
		data := randSlice(rng, n)
		orig := append([]int(nil), data...)
		if err := s.Sort(data); err != nil {
			t.Fatalf("sort %d (n=%d): %v", i, n, err)
		}
		checkSorted(t, data, orig)
	}
	st := s.Stats()
	if st.Builds > int64(len(classes)) {
		t.Fatalf("builds = %d for %d touched classes — contexts not reused", st.Builds, len(classes))
	}
	if st.Hits == 0 {
		t.Fatal("no pool hits across 30 sorts")
	}
}

// TestSorterStability runs every library entry point — the one-shot
// Sort, SortFunc and SortKeyed, and Sorter and KeyedSorter on their own
// pool and on a shared one via WithPool — over tagged records
// with many equal keys, and checks each result against sort.SliceStable
// element for element. The sizes cross the exact-size/size-class
// boundary, the exact-fit and padded orderings, and n below the worker
// count on a resident team.
func TestSorterStability(t *testing.T) {
	byKey := func(a, b record) bool { return a.key < b.key }
	shared, err := NewPool(WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	sorter := func(opts ...Option) func([]record) error {
		s, err := NewSorterFunc(byKey, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s.Sort
	}
	keyed := func(opts ...Option) func([]record) error {
		s, err := NewKeyedSorter(recordKey, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s.Sort
	}
	entries := []struct {
		name string
		sort func([]record) error
	}{
		{"Sort", func(data []record) error {
			// Sort needs an ordered type: pack (key, seq) so the natural
			// order is the stable order, then gather the records by seq.
			packed := make([]int64, len(data))
			for i, r := range data {
				packed[i] = r.key<<32 | int64(r.seq)
			}
			if err := Sort(packed, WithWorkers(4)); err != nil {
				return err
			}
			orig := append([]record(nil), data...)
			for i, v := range packed {
				data[i] = orig[v&(1<<32-1)]
			}
			return nil
		}},
		{"SortFunc", func(data []record) error { return SortFunc(data, byKey, WithWorkers(4)) }},
		{"SortKeyed", func(data []record) error { return SortKeyed(data, recordKey, WithWorkers(4)) }},
		{"Sorter", sorter(WithWorkers(4))},
		{"Sorter/WithPool", sorter(WithPool(shared))},
		{"KeyedSorter", keyed(WithWorkers(4))},
		{"KeyedSorter/WithPool", keyed(WithPool(shared))},
	}
	for _, e := range entries {
		for _, n := range []int{2, 3, 64, 65, 256, 257, 4096} {
			data := makeRecords(n, int64(n))
			want := append([]record(nil), data...)
			sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
			if err := e.sort(data); err != nil {
				t.Fatalf("%s n=%d: %v", e.name, n, err)
			}
			for i := range want {
				if data[i] != want[i] {
					t.Fatalf("%s n=%d: position %d holds seq %d, want seq %d", e.name, n, i, data[i].seq, want[i].seq)
				}
			}
		}
	}
}

// TestSorterZeroSteadyStateBuilds is the pooling claim stated exactly:
// after one warmup sort at a size, further sorts at that size build
// nothing.
func TestSorterZeroSteadyStateBuilds(t *testing.T) {
	s, err := NewSorter[int](WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(3))
	data := randSlice(rng, 1000)
	if err := s.Sort(data); err != nil {
		t.Fatal(err)
	}
	warm := s.Stats().Builds
	for i := 0; i < 50; i++ {
		d := randSlice(rng, 900+i)
		if err := s.Sort(d); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Builds; got != warm {
		t.Fatalf("steady state built %d contexts, want 0", got-warm)
	}
}

// TestSorterSmallInputs covers the fresh-path cutoff and degenerate
// sizes.
func TestSorterSmallInputs(t *testing.T) {
	s, err := NewSorter[int](WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, n := range []int{0, 1, 2, 3, sizeclass.FreshCutoff, sizeclass.FreshCutoff + 1} {
		rng := rand.New(rand.NewSource(int64(n)))
		data := randSlice(rng, n)
		orig := append([]int(nil), data...)
		if err := s.Sort(data); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkSorted(t, data, orig)
	}
}

// TestSorterChurn runs the kill/revive fault plane on every sort; the
// outputs must be indistinguishable from faultless runs.
func TestSorterChurn(t *testing.T) {
	s, err := NewSorter[int](WithWorkers(4), WithChurn(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		data := randSlice(rng, 300+50*i)
		orig := append([]int(nil), data...)
		if err := s.Sort(data); err != nil {
			t.Fatalf("churn sort %d: %v", i, err)
		}
		checkSorted(t, data, orig)
	}
}

// TestSorterCrashes fail-stops half the workers per sort without
// revival; survivors must still produce correct output every time, and
// the resident teams must be whole again for each next sort.
func TestSorterCrashes(t *testing.T) {
	s, err := NewSorter[int](WithWorkers(4), WithCrashes(0.5, 32))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		data := randSlice(rng, 400)
		orig := append([]int(nil), data...)
		if err := s.Sort(data); err != nil {
			t.Fatalf("crash sort %d: %v", i, err)
		}
		checkSorted(t, data, orig)
	}
}

// TestSorterContextCancel: a canceled context aborts the sort, leaves
// the data untouched, and the sorter keeps working afterwards.
func TestSorterContextCancel(t *testing.T) {
	s, err := NewSorter[int](WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Already-canceled context: immediate return, no work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	data := []int{3, 1, 2, 5, 4}
	if err := s.SortContext(ctx, data); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: err = %v, want context.Canceled", err)
	}

	// Cancel racing a large sort: either the sort completed (sorted
	// output, nil error) or the abort won (untouched data, ctx error).
	rng := rand.New(rand.NewSource(6))
	big := randSlice(rng, 200_000)
	orig := append([]int(nil), big...)
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.SortContext(ctx2, big) }()
	cancel2()
	switch err := <-done; {
	case err == nil:
		checkSorted(t, big, orig)
	case errors.Is(err, context.Canceled):
		for i := range big {
			if big[i] != orig[i] {
				t.Fatalf("aborted sort mutated data at %d", i)
			}
		}
	default:
		t.Fatalf("unexpected error: %v", err)
	}

	// The pool must still serve sorts after an abort.
	after := randSlice(rng, 1000)
	origAfter := append([]int(nil), after...)
	if err := s.Sort(after); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, after, origAfter)
}

// TestWithPoolSharing: two sorters over one pool share its contexts;
// WithPool plus any other option is rejected; closing a borrowing
// sorter leaves the pool alive.
func TestWithPoolSharing(t *testing.T) {
	p, err := NewPool(WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if _, err := NewSorter[int](WithPool(p), WithWorkers(2)); err == nil {
		t.Fatal("WithPool+WithWorkers should be rejected")
	}
	if err := Sort([]int{2, 1}, WithPool(p)); err == nil {
		t.Fatal("one-shot Sort with WithPool should be rejected")
	}

	s1, err := NewSorter[int](WithPool(p))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSorterFunc[int](func(a, b int) bool { return a > b }, WithPool(p))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	d1 := randSlice(rng, 500)
	o1 := append([]int(nil), d1...)
	if err := s1.Sort(d1); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, d1, o1)

	d2 := randSlice(rng, 500)
	if err := s2.Sort(d2); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(d2); i++ {
		if d2[i-1] < d2[i] {
			t.Fatalf("descending sorter broke at %d", i)
		}
	}
	s1.Close() // borrower Close must not kill the shared pool
	d3 := randSlice(rng, 500)
	if err := s2.Sort(d3); err != nil {
		t.Fatalf("after sibling Close: %v", err)
	}
	for i := 1; i < len(d3); i++ {
		if d3[i-1] < d3[i] {
			t.Fatalf("descending sorter broke at %d after sibling Close", i)
		}
	}

	if p.Stats().Gets == 0 {
		t.Fatal("shared pool saw no traffic")
	}
}

// TestPoolTrim drops idle state and keeps serving.
func TestPoolTrim(t *testing.T) {
	s, err := NewSorter[int](WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(8))
	data := randSlice(rng, 500)
	if err := s.Sort(data); err != nil {
		t.Fatal(err)
	}
	s.p.Trim()
	data2 := randSlice(rng, 500)
	orig2 := append([]int(nil), data2...)
	if err := s.Sort(data2); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, data2, orig2)
	if got := s.Stats().Trims; got == 0 {
		t.Fatal("Trim dropped nothing")
	}
}

// TestSorterPipelined drives a pooled sorter built with WithPipeline,
// which is accepted and ignored, from several goroutines at once and
// checks every output: concurrent sorts each run on a team of their
// own, and sequential ones reuse a parked team.
func TestSorterPipelined(t *testing.T) {
	s, err := NewSorter[int](WithWorkers(4), WithPipeline(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 6; i++ {
		data := randSlice(rng, 100+200*i)
		orig := append([]int(nil), data...)
		if err := s.Sort(data); err != nil {
			t.Fatalf("sequential sort %d: %v", i, err)
		}
		checkSorted(t, data, orig)
	}

	const clients = 4
	inputs := make([][]int, clients*3)
	origs := make([][]int, len(inputs))
	for i := range inputs {
		inputs[i] = randSlice(rng, 150+100*i)
		origs[i] = append([]int(nil), inputs[i]...)
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(inputs); i += clients {
				if err := s.Sort(inputs[i]); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	for i := range inputs {
		checkSorted(t, inputs[i], origs[i])
	}
}

// TestSorterPipelinedChurn runs churned sorts back to back on a pool
// built with the ignored WithPipeline: each job resets its team's kill
// flags, so one sort's churn never leaks into the next.
func TestSorterPipelinedChurn(t *testing.T) {
	s, err := NewSorter[int](WithWorkers(4), WithPipeline(2), WithChurn(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		data := randSlice(rng, 300+60*i)
		orig := append([]int(nil), data...)
		if err := s.Sort(data); err != nil {
			t.Fatalf("churn sort %d: %v", i, err)
		}
		checkSorted(t, data, orig)
	}
}

// TestSorterPipelinedContextCancel: aborting one sort on a pool built
// with the ignored WithPipeline leaves the data untouched and the pool
// serving.
func TestSorterPipelinedContextCancel(t *testing.T) {
	s, err := NewSorter[int](WithWorkers(2), WithPipeline(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(12))
	big := randSlice(rng, 200_000)
	orig := append([]int(nil), big...)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.SortContext(ctx, big) }()
	cancel()
	switch err := <-done; {
	case err == nil:
		checkSorted(t, big, orig)
	case errors.Is(err, context.Canceled):
		for i := range big {
			if big[i] != orig[i] {
				t.Fatalf("aborted sort mutated data at %d", i)
			}
		}
	default:
		t.Fatalf("unexpected error: %v", err)
	}

	after := randSlice(rng, 1000)
	origAfter := append([]int(nil), after...)
	if err := s.Sort(after); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, after, origAfter)
}

// TestWithPipelineIgnored pins WithPipeline as a no-op that every
// entry point accepts: one-shot sorts, Simulate and pools sort exactly
// as without it.
func TestWithPipelineIgnored(t *testing.T) {
	data := []int{3, 1, 2}
	if err := Sort(data, WithPipeline(2)); err != nil || !sort.IntsAreSorted(data) {
		t.Fatalf("one-shot Sort with WithPipeline: %v %v", err, data)
	}
	res, err := Simulate([]int{3, 1, 2}, WithPipeline(2))
	if err != nil || !slices.Equal(res.Ranks, []int{3, 1, 2}) {
		t.Fatalf("Simulate with WithPipeline: %v %+v", err, res)
	}
	p, err := NewPool(WithWorkers(2), WithPipeline(0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.queue != nil {
		t.Fatal("WithPipeline installed an admission queue")
	}
}

// TestPoolRunsSortsConcurrently: without a queue policy a pool does not
// serialize its sorts. Each of two sorts blocks in its first comparison
// until both have started, which only completes if they run at once.
func TestPoolRunsSortsConcurrently(t *testing.T) {
	p, err := NewPool(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var started sync.WaitGroup
	started.Add(2)
	both := make(chan struct{})
	go func() {
		started.Wait()
		close(both)
	}()
	var timedOut atomic.Bool
	rng := rand.New(rand.NewSource(13))
	var wg sync.WaitGroup
	errs := make([]error, 2)
	datas := make([][]int, 2)
	origs := make([][]int, 2)
	for i := range errs {
		var once sync.Once
		s, err := NewSorterFunc(func(a, b int) bool {
			once.Do(func() {
				started.Done()
				select {
				case <-both:
				case <-time.After(10 * time.Second):
					timedOut.Store(true)
				}
			})
			return a < b
		}, WithPool(p))
		if err != nil {
			t.Fatal(err)
		}
		datas[i] = randSlice(rng, 300)
		origs[i] = append([]int(nil), datas[i]...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.Sort(datas[i])
		}()
	}
	wg.Wait()
	if timedOut.Load() {
		t.Fatal("the pool ran its two sorts one after the other")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		checkSorted(t, datas[i], origs[i])
	}
}

// TestSortTraceOnTeam: a traced pooled sort reports its team's wall and
// a per-phase split of it under the kernel's phase labels, with no
// queue wait on a pool without a queue policy.
func TestSortTraceOnTeam(t *testing.T) {
	s, err := NewSorter[int](WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{sizeclass.FreshCutoff, 5000} {
		data := randSlice(rng, n)
		var tr SortTrace
		if err := s.SortContext(WithSortTrace(context.Background(), &tr), data); err != nil {
			t.Fatal(err)
		}
		if tr.RunNs <= 0 || tr.QueueWaitNs != 0 {
			t.Fatalf("n=%d: trace %+v, want RunNs > 0 and no queue wait", n, tr)
		}
		var names []string
		var sum int64
		for _, ph := range tr.Phases {
			names = append(names, ph.Name)
			sum += ph.DurNs
		}
		if !slices.Equal(names, []string{"1:build", "3:place"}) {
			t.Fatalf("n=%d: phases %v, want the kernel's [1:build 3:place]", n, names)
		}
		if sum <= 0 || sum > tr.RunNs {
			t.Fatalf("n=%d: phase sum %d outside (0, RunNs=%d]", n, sum, tr.RunNs)
		}
	}
}

// TestSimulateRejectsNativeFaults locks the option boundary.
func TestSimulateRejectsNativeFaults(t *testing.T) {
	if _, err := Simulate([]int{3, 1, 2}, WithChurn(1)); err == nil {
		t.Fatal("Simulate accepted WithChurn")
	}
	if _, err := Simulate([]int{3, 1, 2}, WithCrashes(0.5, 16)); err == nil {
		t.Fatal("Simulate accepted WithCrashes")
	}
}

// BenchmarkSorterReuse is the pooling acceptance benchmark: in steady
// state a pooled sort must build zero arenas (the arena-builds/op
// metric) versus one full build per op on the fresh path
// (BenchmarkSorterFresh).
func BenchmarkSorterReuse(b *testing.B) {
	s, err := NewSorter[int](WithWorkers(2))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(9))
	data := randSlice(rng, 4096)
	scratch := make([]int, len(data))
	if err := s.Sort(append(scratch[:0], data...)); err != nil { // warmup
		b.Fatal(err)
	}
	start := s.Stats().Builds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, data)
		if err := s.Sort(scratch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	builds := s.Stats().Builds - start
	b.ReportMetric(float64(builds)/float64(b.N), "arena-builds/op")
	if builds != 0 {
		b.Fatalf("steady state built %d arenas", builds)
	}
}

// BenchmarkSorterFresh is the unpooled baseline for BenchmarkSorterReuse.
func BenchmarkSorterFresh(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	data := randSlice(rng, 4096)
	scratch := make([]int, len(data))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, data)
		if err := Sort(scratch, WithWorkers(2)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1, "arena-builds/op")
}
