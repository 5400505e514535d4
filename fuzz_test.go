package wfsort_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"wfsort"
	"wfsort/internal/chaos"
	"wfsort/internal/layout"
	"wfsort/internal/qos"
	"wfsort/internal/server"
)

// FuzzSort feeds arbitrary byte strings through the full native sort
// pipeline with fuzzer-chosen worker counts, variants, arena layouts
// and seeds, checking two explicit invariants: the output is sorted,
// and it is a permutation of the input (equal to the stdlib's sort of
// the same multiset). When the fuzzer picks a nonzero kill fraction,
// the same keys additionally run through the chaos harness under a
// seeded crash quorum: the survivors' output must still match the
// stable-sorted reference and certify under the wait-freedom op
// ceiling.
func FuzzSort(f *testing.F) {
	f.Add([]byte("hello world"), uint8(4), uint8(0), uint8(0), uint64(0), uint8(0), uint64(0))
	f.Add([]byte{0, 0, 0, 0}, uint8(1), uint8(1), uint8(1), uint64(7), uint8(0), uint64(2))
	f.Add([]byte{255, 1, 128, 1, 255, 0}, uint8(9), uint8(2), uint8(2), uint64(3), uint8(3), uint64(5))
	f.Add([]byte{}, uint8(3), uint8(0), uint8(2), uint64(1), uint8(1), uint64(9))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, uint8(6), uint8(1), uint8(0), uint64(5), uint8(4), uint64(11))
	f.Add(bytes.Repeat([]byte{42}, 64), uint8(8), uint8(1), uint8(0), uint64(6), uint8(7), uint64(13))
	f.Fuzz(func(t *testing.T, raw []byte, workers, variant, lay uint8, seed uint64, killFrac uint8, faultSeed uint64) {
		data := make([]int, len(raw))
		for i, b := range raw {
			data[i] = int(b)
		}
		want := make([]int, len(data))
		copy(want, data)
		sort.Ints(want)

		p := int(workers)%32 + 1
		v := wfsort.Variant(variant % 3)
		l := wfsort.Layout(lay % 3)
		err := wfsort.Sort(data, wfsort.WithWorkers(p), wfsort.WithVariant(v),
			wfsort.WithLayout(l), wfsort.WithSeed(seed))
		if err != nil {
			t.Fatalf("Sort(p=%d v=%v l=%v): %v", p, v, l, err)
		}
		if !sort.IntsAreSorted(data) {
			t.Fatalf("p=%d v=%v l=%v input=%v: output not sorted: %v", p, v, l, raw, data)
		}
		for i := range want {
			if data[i] != want[i] {
				t.Fatalf("p=%d v=%v l=%v input=%v: position %d = %d, want %d (not a permutation)",
					p, v, l, raw, i, data[i], want[i])
			}
		}

		// Fault-injected replay: crash roughly killFrac/8 of the workers
		// (sparing processor 0) at seeded op ordinals and re-sort the
		// same keys on the native runtime via the chaos certifier.
		if frac := float64(killFrac%8) / 8; frac > 0 && len(raw) > 0 {
			keys := make([]int, len(raw))
			if len(keys) > 512 {
				keys = keys[:512] // keep the crash replay cheap
			}
			for i := range keys {
				keys[i] = int(raw[i])
			}
			cp := int(workers)%8 + 2
			window := int64(len(keys) + 1)
			spec := chaos.Spec{
				Keys: keys, P: cp, Layout: layout.All()[lay%3], Seed: seed,
				Crashes: chaos.CrashQuorum(cp, frac, window, faultSeed),
			}
			res, err := chaos.RunNative(spec)
			if err != nil {
				t.Fatalf("chaos replay(p=%d l=%v frac=%.2f): %v", cp, spec.Layout, frac, err)
			}
			if !res.Sorted {
				t.Fatalf("chaos replay(p=%d l=%v frac=%.2f keys=%v): output not sorted (%s)",
					cp, spec.Layout, frac, keys, res.Error)
			}
			if !res.Certified {
				t.Fatalf("chaos replay(p=%d l=%v frac=%.2f): max ops %d over ceiling %d",
					cp, spec.Layout, frac, res.MaxOps, res.Bound)
			}
		}
	})
}

// FuzzSimulate drives the simulator with fuzzer-chosen keys, workers,
// variants and seeds, checking ranks always form the true ranking.
func FuzzSimulate(f *testing.F) {
	f.Add([]byte{5, 3, 8}, uint8(2), uint8(0), uint64(1))
	f.Add([]byte{1, 1, 1, 1, 1}, uint8(5), uint8(2), uint64(9))
	f.Add(bytes.Repeat([]byte{7}, 40), uint8(16), uint8(1), uint64(3))
	f.Fuzz(func(t *testing.T, raw []byte, workers uint8, variant uint8, seed uint64) {
		if len(raw) > 256 {
			raw = raw[:256] // keep simulation cheap
		}
		keys := make([]int, len(raw))
		for i, b := range raw {
			keys[i] = int(b)
		}
		p := int(workers)%64 + 1
		v := wfsort.Variant(variant % 3)
		res, err := wfsort.Simulate(keys,
			wfsort.WithWorkers(p), wfsort.WithVariant(v), wfsort.WithSeed(seed))
		if err != nil {
			t.Fatalf("Simulate(p=%d v=%v): %v", p, v, err)
		}
		if len(keys) == 0 {
			return
		}
		// Verify ranks: stable ranking by (key, index).
		ids := make([]int, len(keys))
		for i := range ids {
			ids[i] = i
		}
		sort.SliceStable(ids, func(a, b int) bool { return keys[ids[a]] < keys[ids[b]] })
		for pos, i := range ids {
			if res.Ranks[i] != pos+1 {
				t.Fatalf("p=%d v=%v keys=%v: element %d rank %d, want %d",
					p, v, keys, i+1, res.Ranks[i], pos+1)
			}
		}
	})
}

// fuzzSrv is the process-wide sort service under fuzz: one server per
// fuzz worker process, exercised through its Handler without a network
// listener. The small MaxKeys makes the 413 path reachable by
// fuzzer-grown bodies.
var (
	fuzzSrvOnce sync.Once
	fuzzSrv     *server.Server
	fuzzSrvErr  error
)

func fuzzServer() (*server.Server, error) {
	fuzzSrvOnce.Do(func() {
		fuzzSrv, fuzzSrvErr = server.New(server.Config{
			Workers:      2,
			MaxInFlight:  4,
			MaxKeys:      2048,
			BatchMaxKeys: 64,
			BatchWindow:  200 * time.Microsecond,
			Timeout:      2 * time.Second,
		})
	})
	return fuzzSrv, fuzzSrvErr
}

// FuzzServer throws arbitrary bodies at the sort endpoint — malformed
// JSON, wrong shapes, zero and huge key counts, duplicate-heavy keys —
// plus mid-request cancellations and fuzzer-chosen X-Sort-Class header
// values, and checks the service's contract: no panic, only documented
// status codes, a malformed class name always answers 400, every 429
// carries a Retry-After, and every 200 carries a stable sort of
// exactly the keys posted.
func FuzzServer(f *testing.F) {
	f.Add([]byte(`{"keys":[3,1,2]}`), uint8(0), uint16(0), "")
	f.Add([]byte(`{"keys":[]}`), uint8(0), uint16(0), "lat")
	f.Add([]byte(`{"keys":[5,5,5,5,5,5,5,5]}`), uint8(0), uint16(0), "two words")
	f.Add([]byte(`{`), uint8(0), uint16(0), `qu"ote`)
	f.Add([]byte(`null`), uint8(0), uint16(0), strings.Repeat("x", 65))
	f.Add([]byte(`{"keys":"nope"}`), uint8(0), uint16(0), "ok-class")
	f.Add([]byte(`{"keys":[1e999]}`), uint8(0), uint16(0), "")
	f.Add([]byte(`{"keys":null,"pad":"x"}`), uint8(0), uint16(0), "p1")
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, uint8(1), uint16(40), "bulk")
	f.Add(bytes.Repeat([]byte{1, 200}, 300), uint8(1), uint16(0), "")
	f.Add([]byte{1, 2, 3}, uint8(2), uint16(10), "\tlead")
	f.Fuzz(func(t *testing.T, raw []byte, mode uint8, cancelAfterUS uint16, class string) {
		srv, err := fuzzServer()
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()

		var body []byte
		var keys []int64
		switch mode % 3 {
		case 0: // raw body verbatim: the malformed-input plane
			body = raw
		default: // well-formed request built from the bytes
			keys = make([]int64, len(raw))
			for i, b := range raw {
				keys[i] = int64(int8(b)) // signed: negatives and duplicates
			}
			body, _ = json.Marshal(map[string]any{"keys": keys})
		}

		ctx := context.Background()
		var cancel context.CancelFunc
		if mode%3 == 2 { // mid-request cancellation
			ctx, cancel = context.WithCancel(ctx)
			go func(d time.Duration) {
				time.Sleep(d)
				cancel()
			}(time.Duration(cancelAfterUS) * time.Microsecond)
			defer cancel()
		}

		req := httptest.NewRequest("POST", "/sort", bytes.NewReader(body)).WithContext(ctx)
		if class != "" {
			req.Header.Set("X-Sort-Class", class)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic, whatever the body

		badClass := class != "" && !qos.ValidClassName(class)
		switch rec.Code {
		case http.StatusOK:
			if badClass {
				t.Fatalf("malformed class %q was served a 200", class)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return
		case http.StatusTooManyRequests:
			if rec.Header().Get("Retry-After") == "" {
				t.Fatal("429 without a Retry-After header")
			}
			return
		default:
			t.Fatalf("undocumented status %d for body %q class %q", rec.Code, body, class)
		}
		if keys == nil {
			// A raw body that happened to parse: decode it the same way
			// the server does so the multiset check below still applies.
			var req sortRequestShape
			if json.Unmarshal(body, &req) != nil {
				return
			}
			keys = req.Keys
		}
		var resp struct {
			Sorted []int64 `json:"sorted"`
			N      int     `json:"n"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("unparseable 200 body %q: %v", rec.Body.Bytes(), err)
		}
		if resp.N != len(keys) || len(resp.Sorted) != len(keys) {
			t.Fatalf("200 for %d keys returned n=%d len=%d", len(keys), resp.N, len(resp.Sorted))
		}
		want := append([]int64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if resp.Sorted[i] != want[i] {
				t.Fatalf("sorted[%d] = %d, want %d (keys %v)", i, resp.Sorted[i], want[i], keys)
			}
		}
	})
}

// sortRequestShape mirrors the server's request schema for the
// fuzzer's own decoding.
type sortRequestShape struct {
	Keys []int64 `json:"keys"`
}

// fuzzReuseSorter is the process-wide pooled sorter under fuzz: state
// leaking from one sort into the next is exactly what this fuzzer
// hunts, so every exec shares it.
var (
	fuzzSorterOnce sync.Once
	fuzzSorter     *wfsort.Sorter[int]
	fuzzSorterErr  error
)

// FuzzSorterReuse drives one shared pooled Sorter with back-to-back
// sorts of fuzzer-chosen sizes (crossing the fresh cutoff and class
// boundaries via the replication factor) and verifies each result
// independently: any residue a sort leaves in a pooled context shows
// up as a wrong answer on a later, differently-sized sort.
func FuzzSorterReuse(f *testing.F) {
	f.Add([]byte{3, 1, 2}, uint16(1))
	f.Add([]byte{255, 0, 128}, uint16(200))
	f.Add(bytes.Repeat([]byte{7}, 50), uint16(11))
	f.Add([]byte{9, 8, 7, 6, 5}, uint16(900))
	f.Add([]byte{}, uint16(5))
	f.Fuzz(func(t *testing.T, raw []byte, rep uint16) {
		fuzzSorterOnce.Do(func() {
			fuzzSorter, fuzzSorterErr = wfsort.NewSorter[int](wfsort.WithWorkers(4))
		})
		if fuzzSorterErr != nil {
			t.Fatal(fuzzSorterErr)
		}
		// Replicate the seed bytes to reach real pool classes (and odd
		// sizes that exercise virtual padding), capped to keep execs fast.
		n := len(raw) * (int(rep)%40 + 1)
		if n > 5000 {
			n = 5000
		}
		data := make([]int, n)
		for i := range data {
			data[i] = int(int8(raw[i%len(raw)])) + i%3 // mild value churn per copy
		}
		want := append([]int(nil), data...)
		sort.Ints(want)

		for round := 0; round < 2; round++ { // twice: reuse the context just filled
			got := append([]int(nil), data...)
			if err := fuzzSorter.Sort(got); err != nil {
				t.Fatalf("round %d (n=%d): %v", round, n, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("round %d (n=%d): position %d = %d, want %d", round, n, i, got[i], want[i])
				}
			}
		}
	})
}
