package wfsort

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"
)

// record is the struct-workload shape: an ordering key plus a payload
// big enough that any hidden payload copy would dominate the sort's
// memory traffic.
type record struct {
	key     int64
	seq     int
	payload [120]byte
}

func recordKey(r record) uint64 { return Int64Key(r.key) }

func makeRecords(n int, seed int64) []record {
	rng := rand.New(rand.NewSource(seed))
	span := n / 4 // narrow key range forces ties, exercising stability
	if span < 2 {
		span = 2
	}
	data := make([]record, n)
	for i := range data {
		data[i] = record{key: int64(rng.Intn(span)), seq: i}
		data[i].payload[0] = byte(i)
	}
	return data
}

func checkSortedStable(t *testing.T, data []record) {
	t.Helper()
	for i := 1; i < len(data); i++ {
		if data[i-1].key > data[i].key {
			t.Fatalf("keys out of order at %d: %d > %d", i, data[i-1].key, data[i].key)
		}
		if data[i-1].key == data[i].key && data[i-1].seq > data[i].seq {
			t.Fatalf("stability broken at %d: seq %d before %d", i, data[i-1].seq, data[i].seq)
		}
	}
}

func TestSortKeyedStructs(t *testing.T) {
	for _, n := range []int{2, 3, 64, 65, 255, 1000, 5000} {
		data := makeRecords(n, int64(n))
		want := append([]record(nil), data...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
		if err := SortKeyed(data, recordKey, WithSeed(7)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkSortedStable(t, data)
		for i := range data {
			if data[i] != want[i] {
				t.Fatalf("n=%d: element %d diverges from sort.SliceStable", n, i)
			}
		}
	}
}

func TestSortKeyedNegativeKeys(t *testing.T) {
	data := []record{{key: 5}, {key: -7}, {key: 0}, {key: -7, seq: 1}, {key: 1 << 40}, {key: -(1 << 40)}}
	if err := SortKeyed(data, recordKey); err != nil {
		t.Fatal(err)
	}
	checkSortedStable(t, data)
	if data[0].key != -(1<<40) || data[len(data)-1].key != 1<<40 {
		t.Fatalf("negative ordering wrong: %v ... %v", data[0].key, data[len(data)-1].key)
	}
}

// TestSortKeyedNilKey: a nil key or less function is an argument error
// up front, even for inputs too short to sort, never a worker panic.
func TestSortKeyedNilKey(t *testing.T) {
	if err := SortKeyed([]record{{}, {}}, nil); err == nil {
		t.Fatal("nil key function accepted")
	}
	if _, err := NewKeyedSorter[record](nil); err == nil {
		t.Fatal("NewKeyedSorter accepted nil key function")
	}
	for _, data := range [][]record{nil, {{}, {}}} {
		if err := SortFunc(data, nil); err == nil {
			t.Fatalf("SortFunc accepted a nil less function (n=%d)", len(data))
		}
	}
	if _, err := NewSorterFunc[record](nil); err == nil {
		t.Fatal("NewSorterFunc accepted a nil less function")
	}
}

func TestKeyedSorterPooled(t *testing.T) {
	s, err := NewKeyedSorter(recordKey, WithWorkers(4), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Cross class sizes and the fresh cutoff, reusing contexts and key
	// buffers; every result checked against the reference sort.
	for iter, n := range []int{10, 64, 65, 300, 257, 1024, 5000, 300, 10} {
		data := makeRecords(n, int64(iter*100+n))
		want := append([]record(nil), data...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
		if err := s.Sort(data); err != nil {
			t.Fatalf("iter %d n=%d: %v", iter, n, err)
		}
		for i := range data {
			if data[i] != want[i] {
				t.Fatalf("iter %d n=%d: element %d diverges", iter, n, i)
			}
		}
	}
	if st := s.Stats(); st.Hits == 0 {
		t.Fatalf("no pooled context reuse: %+v", st)
	}
}

func TestKeyedSorterSharedPool(t *testing.T) {
	pool, err := NewPool(WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ks, err := NewKeyedSorter(recordKey, WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewSorterFunc[record](func(a, b record) bool { return a.key < b.key }, WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	// Keyed and comparator sorters interleave on one pool: contexts are
	// key-agnostic, so residue from one must never reach the other.
	for iter := 0; iter < 6; iter++ {
		data := makeRecords(700, int64(iter))
		want := append([]record(nil), data...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
		var sortErr error
		if iter%2 == 0 {
			sortErr = ks.Sort(data)
		} else {
			sortErr = cs.Sort(data)
		}
		if sortErr != nil {
			t.Fatalf("iter %d: %v", iter, sortErr)
		}
		for i := range data {
			if data[i] != want[i] {
				t.Fatalf("iter %d: element %d diverges", iter, i)
			}
		}
	}
	if _, err := NewKeyedSorter(recordKey, WithPool(pool), WithWorkers(2)); err == nil {
		t.Fatal("WithPool plus another option accepted")
	}
}

// TestKeyedSorterPipelinedWithFaults runs churned keyed sorts on a
// pool built with WithPipeline, which is accepted and ignored, and
// checks each against a stable reference.
func TestKeyedSorterPipelinedWithFaults(t *testing.T) {
	s, err := NewKeyedSorter(recordKey, WithWorkers(4), WithPipeline(4), WithChurn(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for iter := 0; iter < 8; iter++ {
		data := makeRecords(900, int64(iter))
		want := append([]record(nil), data...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
		if err := s.Sort(data); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for i := range data {
			if data[i] != want[i] {
				t.Fatalf("iter %d: element %d diverges under churn", iter, i)
			}
		}
	}
}

func TestKeyedSorterCancelLeavesDataUnchanged(t *testing.T) {
	s, err := NewKeyedSorter(recordKey, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := makeRecords(4096, 1)
	orig := append([]record(nil), data...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = s.SortContext(ctx, data)
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	for i := range data {
		if data[i] != orig[i] {
			t.Fatalf("canceled sort mutated element %d", i)
		}
	}
	// A short deadline that expires mid-sort also leaves data either
	// fully sorted (sort won the race) or byte-identical to the input.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Microsecond)
	defer cancel2()
	data2 := makeRecords(8192, 2)
	orig2 := append([]record(nil), data2...)
	if err := s.SortContext(ctx2, data2); err != nil {
		for i := range data2 {
			if data2[i] != orig2[i] {
				t.Fatalf("aborted sort mutated element %d", i)
			}
		}
	} else {
		checkSortedStable(t, data2)
	}
}

// TestKeyedSorterCancelMidLeaf cancels a lone worker in the middle of
// a large sort, while it is sorting a leaf block of hundreds of
// thousands of keys in private scratch. The kernel polls the runtime
// every few thousand comparisons, so the kill lands inside the block:
// the canceled call must return within a tenth of an uncanceled sort's
// wall time, data unchanged.
func TestKeyedSorterCancelMidLeaf(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 18
	}
	s, err := NewKeyedSorter(Int64Key, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := streamKeys(n, 5)
	data := append([]int64(nil), keys...)
	start := time.Now()
	if err := s.Sort(data); err != nil { // also builds the pooled context
		t.Fatal(err)
	}
	full := time.Since(start)

	copy(data, keys)
	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan time.Time, 1)
	go func() {
		time.Sleep(full / 20)
		canceled <- time.Now()
		cancel()
	}()
	err = s.SortContext(ctx, data)
	returned := time.Now()
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled (uncanceled sort took %v)", err, full)
	}
	lag := returned.Sub(<-canceled)
	if lag > full/10 {
		t.Errorf("canceled sort returned %v after the cancel; an uncanceled sort takes %v", lag, full)
	}
	t.Logf("canceled sort returned %v after the cancel; an uncanceled sort takes %v", lag, full)
	for i := range data {
		if data[i] != keys[i] {
			t.Fatalf("canceled sort mutated element %d", i)
		}
	}
}

func TestPermuteInPlace(t *testing.T) {
	data := []int{10, 20, 30, 40, 50}
	places := []int{3, 1, 5, 2, 4} // data[i] -> position places[i]-1
	if err := permuteInPlace(data, places); err != nil {
		t.Fatal(err)
	}
	want := []int{20, 40, 10, 50, 30}
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("got %v, want %v", data, want)
		}
	}
	// Corrupted rank vectors error out instead of hanging or writing
	// out of range.
	if err := permuteInPlace([]int{1, 2}, []int{1, 3}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if err := permuteInPlace([]int{1, 2, 3}, []int{1, 1, 2}); err == nil {
		t.Fatal("duplicated rank accepted")
	}
}

// TestKeyedZeroPayloadCopies is the zero-copy assertion: steady-state
// pooled keyed sorts must not allocate memory proportional to the
// payload. Each sort moves n records of ~136 bytes (~700 KiB of
// payload); the comparator Sorter copies all of it into its input
// buffer every call, while the keyed path allocates only watcher-
// goroutine crumbs. The budget of 32 KiB/sort (~4% of payload) is
// loose enough for runtime noise and far below one payload copy.
func TestKeyedZeroPayloadCopies(t *testing.T) {
	s, err := NewKeyedSorter(recordKey, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 5000
	data := makeRecords(n, 9)
	for i := 0; i < 3; i++ { // warm the pool, team and key buffers
		if err := s.Sort(data); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const rounds = 10
	for i := 0; i < rounds; i++ {
		if err := s.Sort(data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perSort := int64(after.TotalAlloc-before.TotalAlloc) / rounds
	payload := int64(n) * int64(len(record{}.payload))
	if perSort > 32*1024 {
		t.Fatalf("keyed sort allocates %d B/sort (payload is %d B): payloads are being copied", perSort, payload)
	}
}

// BenchmarkKeyedVsComparator times the keyed ordering (extracted uint64
// keys) against the comparator ordering (less over the records
// themselves) on 136-byte records. Both permute in place and copy no
// payload; the allocation-side assertion lives in
// TestKeyedZeroPayloadCopies, which pins steady-state TotalAlloc per
// keyed sort to a small constant far below one payload copy.
func BenchmarkKeyedVsComparator(b *testing.B) {
	const n = 4096
	b.Run("keyed", func(b *testing.B) {
		s, err := NewKeyedSorter(recordKey, WithWorkers(4))
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		data := makeRecords(n, 1)
		if err := s.Sort(data); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Sort(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("comparator", func(b *testing.B) {
		s, err := NewSorterFunc[record](func(x, y record) bool { return x.key < y.key }, WithWorkers(4))
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		data := makeRecords(n, 1)
		if err := s.Sort(data); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Sort(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEntryPointSizes times two entry-point regimes: a 64-key
// KeyedSorter on a pool built with the ignored WithPipeline(4), which
// runs on an exact-size context and a resident team of the pool (the
// serving tier's single-request batches), and one-shot SortFunc over
// 32-byte records, which reads the payloads in place, so its B/op is
// the arena and rank table alone. Run with -benchmem.
func BenchmarkEntryPointSizes(b *testing.B) {
	b.Run("KeyedSorter/pipeline4/n=64", func(b *testing.B) {
		s, err := NewKeyedSorter(Int64Key, WithWorkers(2), WithPipeline(4))
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		rng := rand.New(rand.NewSource(1))
		src := make([]int64, 64)
		for i := range src {
			src[i] = rng.Int63()
		}
		data := make([]int64, len(src))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(data, src)
			if err := s.Sort(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	type rec32 struct {
		key int64
		pad [3]int64
	}
	for _, n := range []int{3500, 50000} {
		b.Run("SortFunc/rec32/n="+strconv.Itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			src := make([]rec32, n)
			for i := range src {
				src[i] = rec32{key: rng.Int63n(int64(n))}
			}
			data := make([]rec32, n)
			less := func(a, b rec32) bool { return a.key < b.key }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(data, src)
				if err := SortFunc(data, less); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
