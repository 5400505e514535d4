package wfsort

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"wfsort/internal/native"
	"wfsort/internal/sizeclass"
)

// fifoShedPolicy sheds expired deadlines and otherwise keeps FIFO —
// the minimal policy exercising both hooks through the public API.
type fifoShedPolicy struct{}

func (fifoShedPolicy) Shed(now int64, j JobView) bool {
	return j.DeadlineNs != 0 && j.DeadlineNs < now
}
func (fifoShedPolicy) Pick(now int64, pending []JobView) int { return 0 }

func TestWithQueuePolicyValidation(t *testing.T) {
	if _, err := NewPool(WithQueuePolicy(nil)); err == nil {
		t.Fatal("nil queue policy accepted")
	}
	if err := Sort([]int{3, 1, 2}, WithQueuePolicy(fifoShedPolicy{})); err == nil {
		t.Fatal("one-shot sort accepted WithQueuePolicy")
	}
	p, err := NewPool(WithWorkers(2), WithQueuePolicy(fifoShedPolicy{}))
	if err != nil {
		t.Fatalf("plain pool with a queue policy rejected: %v", err)
	}
	p.Close()
}

// TestPooledSortDeadlineShed drives the whole stack through the public
// API: a pooled sorter with a shedding policy returns ErrDeadlineShed
// for a job whose deadline already passed, leaves the input untouched,
// and keeps sorting afterwards.
func TestPooledSortDeadlineShed(t *testing.T) {
	s, err := NewSorter[int](WithWorkers(2), WithQueuePolicy(fifoShedPolicy{}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	mk := func(n int, seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		out := make([]int, n)
		for i := range out {
			out[i] = rng.Intn(500)
		}
		return out
	}

	// Big enough to take a class context and the queue (> FreshCutoff).
	data := mk(300, 1)
	orig := append([]int(nil), data...)
	ctx := WithJobQoS(context.Background(), JobQoS{
		Class:    "doomed",
		Deadline: time.Now().Add(-time.Second),
	})
	if err := s.SortContext(ctx, data); !errors.Is(err, ErrDeadlineShed) {
		t.Fatalf("expired-deadline sort returned %v, want ErrDeadlineShed", err)
	}
	for i := range data {
		if data[i] != orig[i] {
			t.Fatal("shed sort modified its input")
		}
	}

	// The queue is unharmed: a normal sort on the same pool succeeds.
	data = mk(300, 2)
	if err := s.Sort(data); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(data) {
		t.Fatal("post-shed sort produced unsorted output")
	}

	// A generous deadline is never shed.
	data = mk(300, 3)
	ctx = WithJobQoS(context.Background(), JobQoS{Deadline: time.Now().Add(time.Hour)})
	if err := s.SortContext(ctx, data); err != nil {
		t.Fatalf("meetable deadline shed: %v", err)
	}
	if !sort.IntsAreSorted(data) {
		t.Fatal("unsorted output")
	}
}

// TestJobQoSEstCostDefault checks the context envelope reaches the
// queue policy with EstCost defaulted to the borrowed class capacity.
func TestJobQoSEstCostDefault(t *testing.T) {
	seen := make(chan JobView, 1)
	p, err := NewPool(WithWorkers(2), WithQueuePolicy(captPolicy{seen}))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s, err := NewSorterFunc[int](func(a, b int) bool { return a < b }, WithPool(p))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int, 300)
	for i := range data {
		data[i] = 300 - i
	}
	ctx := WithJobQoS(context.Background(), JobQoS{Class: "lat", Priority: 2})
	if err := s.SortContext(ctx, data); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-seen:
		if v.Class != "lat" || v.Priority != 2 {
			t.Fatalf("policy saw %+v, want class lat priority 2", v)
		}
		if v.EstCost < 300 {
			t.Fatalf("EstCost = %d, want >= n (class capacity)", v.EstCost)
		}
	default:
		t.Fatal("policy never saw the job")
	}
}

// captPolicy records the first JobView it ever sees. The capture runs
// in Shed, which the queue runs over every waiting job before each
// pick.
type captPolicy struct{ seen chan JobView }

func (c captPolicy) Shed(now int64, j native.JobView) bool {
	select {
	case c.seen <- j:
	default:
	}
	return false
}
func (captPolicy) Pick(now int64, pending []native.JobView) int { return 0 }

// tierPolicy is strict priority (lower tier first, arrival order within
// a tier) that sheds expired deadlines. It logs the class of every pick
// and counts Shed calls, in decision order.
type tierPolicy struct {
	mu    sync.Mutex
	picks []string
	sheds int
}

func (p *tierPolicy) Shed(now int64, j JobView) bool {
	p.mu.Lock()
	p.sheds++
	p.mu.Unlock()
	return j.DeadlineNs != 0 && j.DeadlineNs < now
}

func (p *tierPolicy) Pick(now int64, pending []JobView) int {
	best := 0
	for i := range pending {
		if pending[i].Priority < pending[best].Priority {
			best = i
		}
	}
	p.mu.Lock()
	p.picks = append(p.picks, pending[best].Class)
	p.mu.Unlock()
	return best
}

func (p *tierPolicy) log() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.picks...)
}

// holdSlot starts a sort on p that takes the admission slot and parks
// its worker inside the comparator. It returns once the sort is
// running; release lets it finish, and the returned channel delivers
// its error.
func holdSlot(t *testing.T, p *Pool) (release func(), done <-chan error) {
	t.Helper()
	started := make(chan struct{})
	unblock := make(chan struct{})
	var once sync.Once
	s, err := NewSorterFunc(func(a, b int) bool {
		once.Do(func() {
			close(started)
			<-unblock
		})
		return a < b
	}, WithPool(p))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		data := randSlice(rand.New(rand.NewSource(1)), 300)
		errc <- s.SortContext(WithJobQoS(context.Background(), JobQoS{Class: "hold"}), data)
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("slot holder never started")
	}
	return func() { close(unblock) }, errc
}

// waitQueued polls until n sorts wait in p's admission queue.
func waitQueued(t *testing.T, p *Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.queue.mu.Lock()
		k := len(p.queue.waiting)
		p.queue.mu.Unlock()
		if k == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d sorts queued, want %d", k, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmitPickOrderAcrossTiers: with the slot held, sorts of three
// priority tiers queue up in mixed order; once it frees, the policy
// grants them tier by tier, and a pool with a policy runs one sort at
// a time, so the grant order is the run order.
func TestAdmitPickOrderAcrossTiers(t *testing.T) {
	pol := &tierPolicy{}
	p, err := NewPool(WithWorkers(1), WithQueuePolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	release, holdErr := holdSlot(t, p)

	s, err := NewSorter[int](WithPool(p))
	if err != nil {
		t.Fatal(err)
	}
	arrivals := []JobQoS{
		{Class: "lo", Priority: 2}, {Class: "lo", Priority: 2}, {Class: "mid", Priority: 1},
		{Class: "hi", Priority: 0}, {Class: "lo", Priority: 2},
	}
	rng := rand.New(rand.NewSource(3))
	var wg sync.WaitGroup
	errs := make([]error, len(arrivals))
	datas := make([][]int, len(arrivals))
	origs := make([][]int, len(arrivals))
	for i, q := range arrivals {
		datas[i] = randSlice(rng, 200+50*i)
		origs[i] = append([]int(nil), datas[i]...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.SortContext(WithJobQoS(context.Background(), q), datas[i])
		}()
		waitQueued(t, p, i+1) // fixes the arrival order
	}
	release()
	wg.Wait()
	if err := <-holdErr; err != nil {
		t.Fatalf("slot holder: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sort %d: %v", i, err)
		}
		checkSorted(t, datas[i], origs[i])
	}
	want := []string{"hold", "hi", "mid", "lo", "lo", "lo"}
	if got := pol.log(); !slices.Equal(got, want) {
		t.Fatalf("grant order %v, want %v", got, want)
	}
}

// TestAdmitShedStartsNoTeam: a sort whose deadline has passed is shed
// on arrival. It returns ErrDeadlineShed, leaves its data untouched,
// returns its context, is never picked, and starts no team: a pool
// parks every team a sort ran on, and this one has none.
func TestAdmitShedStartsNoTeam(t *testing.T) {
	pol := &tierPolicy{}
	p, err := NewPool(WithWorkers(2), WithQueuePolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s, err := NewSorter[int](WithPool(p))
	if err != nil {
		t.Fatal(err)
	}
	data := randSlice(rand.New(rand.NewSource(4)), 300)
	orig := append([]int(nil), data...)
	ctx := WithJobQoS(context.Background(), JobQoS{Class: "doomed", Deadline: time.Now().Add(-time.Second)})
	if err := s.SortContext(ctx, data); !errors.Is(err, ErrDeadlineShed) {
		t.Fatalf("expired sort returned %v, want ErrDeadlineShed", err)
	}
	if !slices.Equal(data, orig) {
		t.Fatal("shed sort modified its input")
	}
	if got := pol.log(); len(got) != 0 {
		t.Fatalf("shed sort was picked: %v", got)
	}
	p.mu.Lock()
	teams := len(p.teams)
	p.mu.Unlock()
	if teams != 0 {
		t.Fatalf("shed sort left %d teams; it must start none", teams)
	}
	if st := p.Stats(); st.Gets != st.Puts {
		t.Fatalf("stats %+v: the shed sort kept its context", st)
	}

	if err := s.Sort(data); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, data, orig)
	p.mu.Lock()
	teams = len(p.teams)
	p.mu.Unlock()
	if teams != 1 {
		t.Fatalf("after one sort the pool parks %d teams, want 1", teams)
	}
}

// TestAdmitPicksSingleWaiter: Pick runs even when only one sort waits,
// because per-class queue-wait accounting rides on it; sorts of at
// most sizeclass.FreshCutoff keys skip the queue and are never seen.
func TestAdmitPicksSingleWaiter(t *testing.T) {
	pol := &tierPolicy{}
	p, err := NewPool(WithWorkers(2), WithQueuePolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s, err := NewSorter[int](WithPool(p))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	data := randSlice(rng, 300)
	if err := s.SortContext(WithJobQoS(context.Background(), JobQoS{Class: "one"}), data); err != nil {
		t.Fatal(err)
	}
	tiny := randSlice(rng, sizeclass.FreshCutoff)
	if err := s.SortContext(WithJobQoS(context.Background(), JobQoS{Class: "tiny"}), tiny); err != nil {
		t.Fatal(err)
	}
	if got := pol.log(); !slices.Equal(got, []string{"one"}) {
		t.Fatalf("picks %v, want [one]", got)
	}
}

// TestAdmitContextEndsWhileWaiting: a sort whose context ends while it
// waits leaves the queue, returns ctx.Err() with its data untouched,
// and is never picked; the queue keeps serving.
func TestAdmitContextEndsWhileWaiting(t *testing.T) {
	pol := &tierPolicy{}
	p, err := NewPool(WithWorkers(1), WithQueuePolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	release, holdErr := holdSlot(t, p)

	s, err := NewSorter[int](WithPool(p))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	data := randSlice(rng, 300)
	orig := append([]int(nil), data...)
	ctx, cancel := context.WithCancel(WithJobQoS(context.Background(), JobQoS{Class: "gone"}))
	errc := make(chan error, 1)
	go func() { errc <- s.SortContext(ctx, data) }()
	waitQueued(t, p, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v, want context.Canceled", err)
	}
	if !slices.Equal(data, orig) {
		t.Fatal("canceled waiter modified its input")
	}
	waitQueued(t, p, 0)

	release()
	if err := <-holdErr; err != nil {
		t.Fatalf("slot holder: %v", err)
	}
	if err := s.SortContext(WithJobQoS(context.Background(), JobQoS{Class: "after"}), data); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, data, orig)
	if got := pol.log(); !slices.Equal(got, []string{"hold", "after"}) {
		t.Fatalf("picks %v, want [hold after]", got)
	}
}

// TestAdmitGrantAfterContextEndReleases: a waiter granted the slot
// after its context ended gives the slot back instead of keeping it.
// An ended context on an idle queue is granted in the same call that
// enqueues it, so the grant always lands after the end; the repeats
// cover both ways acquire can observe the race.
func TestAdmitGrantAfterContextEndReleases(t *testing.T) {
	pol := &tierPolicy{}
	q := newAdmitQueue(pol)
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 50; i++ {
		if _, err := q.acquire(ended, JobQoS{Class: "late"}); !errors.Is(err, context.Canceled) {
			t.Fatalf("ended waiter returned %v, want context.Canceled", err)
		}
		q.mu.Lock()
		busy := q.busy
		q.mu.Unlock()
		if busy {
			t.Fatal("ended waiter kept the slot")
		}
	}
	if got := pol.log(); len(got) != 50 {
		t.Fatalf("ended waiters were picked %d times, want 50 (each granted, then released)", len(got))
	}
	if _, err := q.acquire(context.Background(), JobQoS{Class: "next"}); err != nil {
		t.Fatalf("later sort: %v", err)
	}
	q.release()

	// The same holds behind a real pool: later sorts still run.
	p, err := NewPool(WithWorkers(2), WithQueuePolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.queue.acquire(ended, JobQoS{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ended waiter returned %v", err)
	}
	s, err := NewSorter[int](WithPool(p))
	if err != nil {
		t.Fatal(err)
	}
	data := randSlice(rand.New(rand.NewSource(7)), 500)
	orig := append([]int(nil), data...)
	if err := s.Sort(data); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, data, orig)
}
