package wfsort

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"wfsort/internal/sizeclass"
	"wfsort/internal/wire"
)

func streamKeys(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Uint64())
	}
	return keys
}

func runStream(t *testing.T, keys []int64, cfg StreamConfig) (StreamStats, []int64) {
	t.Helper()
	var out SliceWriter
	st, err := SortStream(context.Background(), &out, &SliceReader{Keys: keys}, cfg)
	if err != nil {
		t.Fatalf("SortStream: %v", err)
	}
	return st, out.Keys
}

func checkStreamOutput(t *testing.T, keys, got []int64) {
	t.Helper()
	want := append([]int64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("streamed %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("key %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSortStreamSingleChunk(t *testing.T) {
	keys := streamKeys(5000, 1)
	st, got := runStream(t, keys, StreamConfig{ChunkKeys: 1 << 14, Options: []Option{WithWorkers(2)}})
	checkStreamOutput(t, keys, got)
	if st.Spilled || st.Chunks != 1 || st.Keys != 5000 {
		t.Fatalf("fast path not taken: %+v", st)
	}
	sum, xor := wire.Fold(keys)
	if st.Sum != sum || st.Xor != xor {
		t.Fatalf("ledger (%d,%d), want (%d,%d)", st.Sum, st.Xor, sum, xor)
	}
}

func TestSortStreamMultiChunk(t *testing.T) {
	// 23k keys through 1k chunks: 23 spilled runs merged back.
	keys := streamKeys(23_000, 2)
	st, got := runStream(t, keys, StreamConfig{
		ChunkKeys:    1 << 10,
		Depth:        3,
		MergeBufKeys: 257, // awkward frame size stresses refills
		Options:      []Option{WithWorkers(2)},
	})
	checkStreamOutput(t, keys, got)
	if !st.Spilled || st.Chunks != 23 {
		t.Fatalf("stats %+v, want 23 spilled chunks", st)
	}
}

func TestSortStreamExactChunkBoundary(t *testing.T) {
	// N an exact multiple of ChunkKeys: no short tail chunk.
	keys := streamKeys(4*sizeclass.MinClass, 3)
	st, got := runStream(t, keys, StreamConfig{ChunkKeys: sizeclass.MinClass, Options: []Option{WithWorkers(2)}})
	checkStreamOutput(t, keys, got)
	if st.Chunks != 4 {
		t.Fatalf("chunks = %d, want 4", st.Chunks)
	}
}

func TestSortStreamEmptyAndTiny(t *testing.T) {
	st, got := runStream(t, nil, StreamConfig{Options: []Option{WithWorkers(2)}})
	if st.Keys != 0 || len(got) != 0 {
		t.Fatalf("empty stream produced %d keys", len(got))
	}
	keys := []int64{5, -1}
	_, got = runStream(t, keys, StreamConfig{Options: []Option{WithWorkers(2)}})
	checkStreamOutput(t, keys, got)
}

func TestSortStreamDuplicateHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := make([]int64, 10_000)
	for i := range keys {
		keys[i] = int64(rng.Intn(7)) // massive cross-chunk ties
	}
	_, got := runStream(t, keys, StreamConfig{ChunkKeys: 1 << 10, Options: []Option{WithWorkers(2)}})
	checkStreamOutput(t, keys, got)
}

func TestSortStreamSharedPool(t *testing.T) {
	pool, err := NewPool(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	keys := streamKeys(9000, 5)
	var out SliceWriter
	st, err := SortStream(context.Background(), &out, &SliceReader{Keys: keys}, StreamConfig{
		ChunkKeys: 1 << 10, Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkStreamOutput(t, keys, out.Keys)
	if !st.Spilled {
		t.Fatal("expected spill")
	}
	// Pool plus Options is rejected.
	if _, err := SortStream(context.Background(), &out, &SliceReader{}, StreamConfig{
		Pool: pool, Options: []Option{WithWorkers(2)},
	}); err == nil {
		t.Fatal("Pool+Options accepted")
	}
}

func TestSortStreamCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out SliceWriter
	_, err := SortStream(ctx, &out, &SliceReader{Keys: streamKeys(50_000, 6)}, StreamConfig{
		ChunkKeys: 1 << 10, Options: []Option{WithWorkers(2)},
	})
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// failAfterReader serves pseudo-random keys and then fails: a source
// that breaks mid-stream, after some chunks are already sorting.
type failAfterReader struct {
	rng  *rand.Rand
	left int
}

var errSourceBroke = errors.New("source broke")

func (r *failAfterReader) ReadKeys(buf []int64) (int, error) {
	if r.left == 0 {
		return 0, errSourceBroke
	}
	n := min(len(buf), r.left)
	for i := range buf[:n] {
		buf[i] = r.rng.Int63()
	}
	r.left -= n
	return n, nil
}

// TestSortStreamReadErrorWaitsForChunks: a source read error returns
// only after every chunk sort in flight has finished, so each context
// the stream borrowed is back in the pool when SortStream returns.
func TestSortStreamReadErrorWaitsForChunks(t *testing.T) {
	pool, err := NewPool(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const chunk = 1 << 16
	src := &failAfterReader{rng: rand.New(rand.NewSource(9)), left: 3 * chunk}
	var out SliceWriter
	_, err = SortStream(context.Background(), &out, src, StreamConfig{ChunkKeys: chunk, Pool: pool})
	if !errors.Is(err, errSourceBroke) {
		t.Fatalf("got %v, want the source's error", err)
	}
	if st := pool.Stats(); st.Gets != 3 || st.Puts != st.Gets {
		t.Fatalf("pool stats %+v: want 3 gets, all returned before SortStream returned", st)
	}
}

func TestSortStreamWireRoundTrip(t *testing.T) {
	// The codec is the stream's I/O dialect end to end: wire.Reader in,
	// wire blocks out.
	keys := streamKeys(12_000, 7)
	body := wire.AppendBlock(nil, wire.KindRequest, keys)
	d := wire.NewReader(bytes.NewReader(body))
	if _, err := d.Header(0); err != nil {
		t.Fatal(err)
	}
	var out SliceWriter
	_, err := SortStream(context.Background(), &out, d, StreamConfig{
		ChunkKeys: 1 << 10, Options: []Option{WithWorkers(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkStreamOutput(t, keys, out.Keys)
}

// TestStreamSoak is the streaming satellite: concurrent SortStream
// runs over a churned shared pool, each verifying its chunk-ledger
// fold against the whole-input sum/xor, with peak heap pinned to
// O(chunk), not O(N). Short mode trims volume, not coverage.
func TestStreamSoak(t *testing.T) {
	streams, keysPer := 6, 60_000
	if testing.Short() {
		streams, keysPer = 3, 24_000
	}
	pool, err := NewPool(WithWorkers(2), WithChurn(1))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const chunk = 1 << 10
	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)

	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := streamKeys(keysPer, int64(100+g))
			wantSum, wantXor := wire.Fold(keys)
			var out ledgerWriter
			st, err := SortStream(context.Background(), &out, &SliceReader{Keys: keys}, StreamConfig{
				ChunkKeys: chunk, Pool: pool, MergeBufKeys: 512,
			})
			if err != nil {
				errs <- err
				return
			}
			// The chunk-ledger fold must equal the whole-input ledger, on
			// both the stats and the delivered bytes.
			if st.Sum != wantSum || st.Xor != wantXor {
				errs <- errLedger("stats", g, st.Sum, st.Xor, wantSum, wantXor)
				return
			}
			if out.sum != wantSum || out.xor != wantXor || out.n != int64(keysPer) {
				errs <- errLedger("output", g, out.sum, out.xor, wantSum, wantXor)
				return
			}
			if !out.sorted {
				errs <- errLedger("order", g, 0, 0, 0, 0)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Peak-memory bound: HeapAlloc growth across the soak must be far
	// below the total volume sorted (streams × keysPer × 8 bytes) —
	// in-flight chunks, merge frames and pooled arenas only. The 32 MiB
	// budget is ~24x the working set and ~1/1x the total volume guard:
	// a whole-input buffering bug blows straight through it.
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(base.HeapAlloc); grew > 32<<20 {
		t.Fatalf("heap grew %d bytes across the soak: stream memory is not O(chunk)", grew)
	}
}

// TestSortStreamUnderCrashes runs a spilled stream's chunk sorts on a
// pool that fail-stops about half the workers of every sort.
// The output must arrive in order, and the ledgers must agree end to
// end: the input fold in the stats, every spilled block's own ledger
// (re-verified as stage 2 reads it back, or SortStream errors), and the
// fold of what the writer received.
func TestSortStreamUnderCrashes(t *testing.T) {
	pool, err := NewPool(WithWorkers(4), WithCrashes(0.5, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const chunk = 1 << 12
	keys := streamKeys(10*chunk+123, 77)
	wantSum, wantXor := wire.Fold(keys)
	var out ledgerWriter
	st, err := SortStream(context.Background(), &out, &SliceReader{Keys: keys}, StreamConfig{
		ChunkKeys: chunk, Pool: pool, MergeBufKeys: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Spilled || st.Chunks != 11 {
		t.Fatalf("stats %+v, want 11 spilled chunks", st)
	}
	if st.Sum != wantSum || st.Xor != wantXor {
		t.Fatal(errLedger("stats", 0, st.Sum, st.Xor, wantSum, wantXor))
	}
	if out.n != int64(len(keys)) || out.sum != wantSum || out.xor != wantXor {
		t.Fatal(errLedger("output", 0, out.sum, out.xor, wantSum, wantXor))
	}
	if !out.sorted {
		t.Fatal("output out of order")
	}
}

// ledgerWriter folds what it receives and checks frame-to-frame order.
type ledgerWriter struct {
	sum, xor int64
	n        int64
	last     int64
	sorted   bool
	started  bool
}

func (w *ledgerWriter) WriteKeys(keys []int64) error {
	if !w.started {
		w.sorted = true
		w.started = true
	}
	for _, k := range keys {
		if w.n > 0 && k < w.last {
			w.sorted = false
		}
		w.last = k
		w.sum += k
		w.xor ^= k
		w.n++
	}
	return nil
}

func errLedger(what string, g int, gotSum, gotXor, wantSum, wantXor int64) error {
	return &ledgerErr{what: what, g: g, gs: gotSum, gx: gotXor, ws: wantSum, wx: wantXor}
}

type ledgerErr struct {
	what   string
	g      int
	gs, gx int64
	ws, wx int64
}

func (e *ledgerErr) Error() string {
	if e.what == "order" {
		return "stream " + itoa(e.g) + ": output out of order"
	}
	return "stream " + itoa(e.g) + " " + e.what + " ledger mismatch"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// slowReader trickles keys with delays, exercising the reader-bound
// regime where sorts drain faster than the input arrives.
type slowReader struct {
	keys []int64
	pos  int
}

func (r *slowReader) ReadKeys(buf []int64) (int, error) {
	if r.pos >= len(r.keys) {
		return 0, io.EOF
	}
	time.Sleep(100 * time.Microsecond)
	n := 97 // prime trickle
	if n > len(buf) {
		n = len(buf)
	}
	if n > len(r.keys)-r.pos {
		n = len(r.keys) - r.pos
	}
	copy(buf, r.keys[r.pos:r.pos+n])
	r.pos += n
	if r.pos == len(r.keys) {
		return n, io.EOF
	}
	return n, nil
}

func TestSortStreamSlowReader(t *testing.T) {
	keys := streamKeys(3000, 8)
	var out SliceWriter
	_, err := SortStream(context.Background(), &out, &slowReader{keys: keys}, StreamConfig{
		ChunkKeys: 1 << 8, Options: []Option{WithWorkers(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkStreamOutput(t, keys, out.Keys)
}
