package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"wfsort"
	"wfsort/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// postSort posts keys to /sort and decodes the reply. It reads the
// reply to EOF — past the end of the JSON value — because its last
// chunk leaves only when the handler returns, after the request's span
// and stage timings are recorded; tests that read /trace, /requests or
// /metrics next must not race that.
func postSort(t *testing.T, url string, keys []int64) (*http.Response, sortResponse) {
	t.Helper()
	body, _ := json.Marshal(sortRequest{Keys: keys})
	resp, err := http.Post(url+"/sort", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out sortResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func checkSortedKeys(t *testing.T, got, sent []int64) {
	t.Helper()
	want := append([]int64(nil), sent...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("response has %d keys, sent %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("key %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func randKeys(rng *rand.Rand, n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(1000))
	}
	return keys
}

// TestServerSort covers the direct (large) and batched (small) sort
// paths end to end over HTTP.
func TestServerSort(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(1))

	large := randKeys(rng, 5000)
	resp, out := postSort(t, ts.URL, large)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("large sort: status %d", resp.StatusCode)
	}
	if out.Batched {
		t.Fatal("large request should not be batched")
	}
	checkSortedKeys(t, out.Sorted, large)

	small := randKeys(rng, 20)
	resp, out = postSort(t, ts.URL, small)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small sort: status %d", resp.StatusCode)
	}
	if !out.Batched {
		t.Fatal("small request should ride the batcher")
	}
	checkSortedKeys(t, out.Sorted, small)

	// Degenerate bodies the service must absorb.
	for _, keys := range [][]int64{nil, {}, {42}, {5, 5, 5, 5}} {
		resp, out := postSort(t, ts.URL, keys)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("keys=%v: status %d", keys, resp.StatusCode)
		}
		checkSortedKeys(t, out.Sorted, keys)
	}
}

// TestServerPipelined serves concurrent traffic on a server configured
// with PipelineDepth, which is accepted and ignored, and checks every
// response: each request's sort runs on a team of its own.
func TestServerPipelined(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, PipelineDepth: 2})
	rng := rand.New(rand.NewSource(17))

	inputs := make([][]int64, 12)
	for i := range inputs {
		inputs[i] = randKeys(rng, 300+400*i)
	}
	var wg sync.WaitGroup
	fails := make([]string, len(inputs))
	for i, keys := range inputs {
		wg.Add(1)
		go func(i int, keys []int64) {
			defer wg.Done()
			resp, out := postSort(t, ts.URL, keys)
			if resp.StatusCode != http.StatusOK {
				fails[i] = fmt.Sprintf("status %d", resp.StatusCode)
				return
			}
			want := append([]int64(nil), keys...)
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			for j := range out.Sorted {
				if out.Sorted[j] != want[j] {
					fails[i] = fmt.Sprintf("key %d: got %d want %d", j, out.Sorted[j], want[j])
					return
				}
			}
		}(i, keys)
	}
	wg.Wait()
	for i, f := range fails {
		if f != "" {
			t.Fatalf("request %d (n=%d): %s", i, len(inputs[i]), f)
		}
	}
}

// TestServerBatchCoalescing fires a burst of small requests and checks
// they were merged into fewer sorts than requests.
func TestServerBatchCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{BatchWindow: 5 * time.Millisecond})
	rng := rand.New(rand.NewSource(2))
	const clients = 16
	var wg sync.WaitGroup
	sent := make([][]int64, clients)
	got := make([][]int64, clients)
	for i := 0; i < clients; i++ {
		sent[i] = randKeys(rng, 10+rng.Intn(50))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out := postSort(t, ts.URL, sent[i])
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			got[i] = out.Sorted
		}(i)
	}
	wg.Wait()
	for i := range sent {
		checkSortedKeys(t, got[i], sent[i])
	}
	st := s.Stats()
	if st.Batches >= st.Batched {
		t.Fatalf("batches=%d for %d batched requests — nothing coalesced", st.Batches, st.Batched)
	}
}

// TestServerAdmission: with every token held, /sort answers 429.
func TestServerAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2})
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	resp, _ := postSort(t, ts.URL, []int64{3, 1, 2})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	<-s.sem
	<-s.sem
	if resp, _ := postSort(t, ts.URL, []int64{3, 1, 2}); resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d", resp.StatusCode)
	}
	if s.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Stats().Rejected)
	}
}

// TestServerTooLarge: requests beyond MaxKeys answer 413.
func TestServerTooLarge(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxKeys: 100})
	resp, _ := postSort(t, ts.URL, make([]int64, 101))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if s.Stats().TooLarge != 1 {
		t.Fatalf("too_large = %d, want 1", s.Stats().TooLarge)
	}
}

// TestServerBadJSON: malformed bodies answer 400 without touching the
// sort machinery.
func TestServerBadJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{"", "{", `{"keys": "zap"}`, `[1,2,3`} {
		resp, err := http.Post(ts.URL+"/sort", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestServerDeadline: a request whose deadline passes while queued
// answers 504 and counts as canceled.
func TestServerDeadline(t *testing.T) {
	// Batching disabled and a timeout so small nothing finishes in it.
	s, _ := newTestServer(t, Config{Timeout: time.Nanosecond, BatchMaxKeys: -1})
	rec := httptest.NewRecorder()
	body, _ := json.Marshal(sortRequest{Keys: randKeys(rand.New(rand.NewSource(3)), 5000)})
	req := httptest.NewRequest(http.MethodPost, "/sort", bytes.NewReader(body))
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", rec.Code)
	}
	if s.Stats().Canceled != 1 {
		t.Fatalf("canceled = %d, want 1", s.Stats().Canceled)
	}
}

// TestServerObservability exercises /healthz, /metrics and /requests.
func TestServerObservability(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 3; i++ {
		if resp, _ := postSort(t, ts.URL, randKeys(rng, 2000)); resp.StatusCode != http.StatusOK {
			t.Fatalf("sort %d failed", i)
		}
	}

	_ = s.Spans() // accessor compiles and is non-nil for sortd
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health["ok"] != true {
		t.Fatalf("healthz: status %d body %v", resp.StatusCode, health)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Server Stats            `json:"server"`
		Pool   wfsort.PoolStats `json:"pool"`
	}
	json.NewDecoder(resp.Body).Decode(&metrics)
	resp.Body.Close()
	if metrics.Server.Requests != 3 {
		t.Fatalf("metrics requests = %d, want 3", metrics.Server.Requests)
	}
	if metrics.Pool.Gets == 0 {
		t.Fatal("metrics show no pool traffic")
	}

	resp, err = http.Get(ts.URL + "/requests?n=2")
	if err != nil {
		t.Fatal(err)
	}
	var spans []obs.Span
	json.NewDecoder(resp.Body).Decode(&spans)
	resp.Body.Close()
	if len(spans) != 2 {
		t.Fatalf("/requests returned %d spans, want 2", len(spans))
	}
	if spans[0].Outcome != "ok" || spans[0].N == 0 {
		t.Fatalf("span looks wrong: %+v", spans[0])
	}

	resp, err = http.Get(ts.URL + "/obs/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/obs/debug/vars: status %d", resp.StatusCode)
	}
}

// TestServerDrain: Shutdown answers later requests 503, completes with
// nothing in flight, and health reports draining.
func TestServerDrain(t *testing.T) {
	cfg := Config{Workers: 2}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, _ := postSort(t, ts.URL, []int64{2, 1, 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain sort: status %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, _ := postSort(t, ts.URL, []int64{2, 1, 3})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz: status %d, want 503", resp.StatusCode)
	}
}

// TestServerFaultOptions runs the service over a churn-injected pool:
// every sort survives kills and respawns invisibly.
func TestServerFaultOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 4,
		Options: []wfsort.Option{wfsort.WithChurn(1)},
	})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5; i++ {
		keys := randKeys(rng, 1000)
		resp, out := postSort(t, ts.URL, keys)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("churned sort %d: status %d", i, resp.StatusCode)
		}
		checkSortedKeys(t, out.Sorted, keys)
	}
}

// TestServerStability: equal keys from distinct batched requests come
// back to their own requests (the stability demux property stated on
// the kv type).
func TestServerStability(t *testing.T) {
	_, ts := newTestServer(t, Config{BatchWindow: 5 * time.Millisecond})
	var wg sync.WaitGroup
	const clients = 8
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Every client sends the same keys; each must get exactly
			// its own multiset back, sorted.
			keys := []int64{5, 3, 5, 1, 3, 5}
			resp, out := postSort(t, ts.URL, keys)
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			want := []int64{1, 3, 3, 5, 5, 5}
			for j := range want {
				if out.Sorted[j] != want[j] {
					errs[i] = fmt.Errorf("got %v", out.Sorted)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}
