package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfsort"
	"wfsort/internal/qos"
)

// doSort posts keys under a traffic class and returns the status plus
// the raw response body (closed).
func doSort(t testing.TB, url, class string, keys []int64) (int, []byte, http.Header) {
	t.Helper()
	body, _ := json.Marshal(sortRequest{Keys: keys})
	req, err := http.NewRequest(http.MethodPost, url+"/sort", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if class != "" {
		req.Header.Set("X-Sort-Class", class)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

func sortedBody(t testing.TB, raw []byte, sent []int64) {
	t.Helper()
	var out sortResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("unparseable 200 body %q: %v", raw, err)
	}
	if len(out.Sorted) != len(sent) {
		t.Fatalf("%d keys back for %d sent", len(out.Sorted), len(sent))
	}
	counts := map[int64]int{}
	for _, k := range sent {
		counts[k]++
	}
	for i, k := range out.Sorted {
		if i > 0 && out.Sorted[i-1] > k {
			t.Fatalf("unsorted at %d: %v", i, out.Sorted[:i+1])
		}
		counts[k]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("key %d multiplicity off by %d", k, c)
		}
	}
}

// TestQoSConfigRejectedAtNew: a bad QoS config fails construction with
// the qos package's typed error, before any pool is built.
func TestQoSConfigRejectedAtNew(t *testing.T) {
	_, err := New(Config{QoS: &qos.Config{}}) // no classes
	if err == nil {
		t.Fatal("empty QoS config accepted")
	}
	var ce *qos.ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *qos.ConfigError", err)
	}
}

// TestQoSClassGate covers the class-header contract with the plane on:
// malformed names 400, unconfigured names 400, configured names admit,
// and a missing header means "default" (configured here).
func TestQoSClassGate(t *testing.T) {
	s, ts := newTestServer(t, Config{
		BatchMaxKeys: -1,
		QoS: &qos.Config{Classes: []qos.ClassQoS{
			{Name: "default", Rate: 1000, Burst: 100},
			{Name: "lat", Rate: 1000, Burst: 100, Priority: 1},
		}},
	})
	keys := []int64{3, 1, 2}

	for _, bad := range []string{"two words", "q\"uote", strings.Repeat("a", 65)} {
		code, raw, _ := doSort(t, ts.URL, bad, keys)
		if code != http.StatusBadRequest {
			t.Fatalf("class %q: status %d, want 400 (%s)", bad, code, raw)
		}
	}
	code, raw, _ := doSort(t, ts.URL, "ghost", keys)
	if code != http.StatusBadRequest || !bytes.Contains(raw, []byte("unknown class")) {
		t.Fatalf("unconfigured class: status %d body %s", code, raw)
	}
	for _, good := range []string{"", "lat", "default"} {
		code, raw, _ := doSort(t, ts.URL, good, keys)
		if code != http.StatusOK {
			t.Fatalf("class %q: status %d (%s)", good, code, raw)
		}
		sortedBody(t, raw, keys)
	}
	if got := s.Classes().Get("lat").Admitted.Load(); got != 1 {
		t.Fatalf("lat admitted = %d, want 1", got)
	}
	// default got the empty-header request and its own.
	if got := s.Classes().Get("default").Admitted.Load(); got != 2 {
		t.Fatalf("default admitted = %d, want 2", got)
	}
}

// TestQoSRateLimit429 drains a one-token bucket and checks the denial:
// 429, a Retry-After of at least one second, and shed accounting on
// both the server and class counters. /metrics must expose the plane.
func TestQoSRateLimit429(t *testing.T) {
	s, ts := newTestServer(t, Config{
		BatchMaxKeys: -1,
		QoS: &qos.Config{Classes: []qos.ClassQoS{
			{Name: "default", Rate: 0.5, Burst: 1},
		}},
	})
	keys := []int64{2, 1}
	code, raw, _ := doSort(t, ts.URL, "", keys)
	if code != http.StatusOK {
		t.Fatalf("first request: status %d (%s)", code, raw)
	}
	code, raw, hdr := doSort(t, ts.URL, "", keys)
	if code != http.StatusTooManyRequests {
		t.Fatalf("bucket-empty request: status %d (%s)", code, raw)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", hdr.Get("Retry-After"))
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	cc := s.Classes().Get("default")
	if cc.Admitted.Load() != 1 || cc.Shed.Load() != 1 {
		t.Fatalf("class counters admitted=%d shed=%d, want 1/1", cc.Admitted.Load(), cc.Shed.Load())
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		QoS map[string]qos.ClassSnapshot `json:"qos"`
	}
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	snap, ok := m.QoS["default"]
	if !ok {
		t.Fatalf("/metrics qos section missing the class: %+v", m.QoS)
	}
	if snap.Rate != 0.5 || snap.Burst != 1 {
		t.Fatalf("qos snapshot = %+v", snap)
	}
}

// TestQoSSemBackstopRetryAfter: with QoS off, the flat semaphore keeps
// rejecting — but its 429 now carries the Retry-After it always lacked.
func TestQoSSemBackstopRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})
	s.sem <- struct{}{}
	code, _, hdr := doSort(t, ts.URL, "", []int64{3, 1})
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", code)
	}
	if hdr.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", hdr.Get("Retry-After"))
	}
	<-s.sem
}

// TestQoSDeadlineShedE2E drives the queue-shed path over HTTP: a class
// with a 1ms deadline submits behind a wall of higher-priority bulk
// work, so the scheduler drops it from the queue — 504, the typed shed
// message, a DeadlineDrop tick, and no team run for it. The bulk work
// itself must all complete, proving the shed cost the bulk nothing.
func TestQoSDeadlineShedE2E(t *testing.T) {
	bulkN := 150_000
	floods := 8
	if testing.Short() {
		bulkN = 60_000
	}
	s, ts := newTestServer(t, Config{
		BatchMaxKeys: -1,
		MaxInFlight:  64,
		Timeout:      60 * time.Second,
		QoS: &qos.Config{Classes: []qos.ClassQoS{
			{Name: "bulk", Rate: 100000, Burst: 1000, Priority: 0},
			{Name: "doomed", Rate: 100000, Burst: 1000, Priority: 8, DeadlineMs: 1},
		}},
	})
	rng := rand.New(rand.NewSource(11))
	bulk := randKeys(rng, bulkN)

	// A closed-loop flood keeps the slot taken and the queue busy;
	// every bulk arrival and release is also a fresh shed pass, so the
	// doomed job's expiry is noticed long before the wall drains.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bulkOK atomic.Int64
	for i := 0; i < floods; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if code, raw, _ := doSort(t, ts.URL, "bulk", bulk); code != http.StatusOK {
					t.Errorf("bulk sort: status %d (%s)", code, raw)
					return
				}
				bulkOK.Add(1)
			}
		}()
	}
	// Wait until most of the flood is resident, then submit the doomed
	// job: deadline 1ms, priority 8 — it cannot win a pick before it
	// expires while bulk work is pending. A fast machine can drain the
	// whole queue between polls, so the submit retries until it lands
	// behind the wall; every non-shed attempt must still be a correct
	// 200.
	for deadline := time.Now().Add(10 * time.Second); s.Stats().InFlight < int64(floods)-1; {
		if time.Now().After(deadline) {
			t.Fatal("flood never became resident")
		}
		time.Sleep(time.Millisecond)
	}
	doomed := randKeys(rng, 2000)
	var sheds int64
	for attempt := 0; attempt < 10 && sheds == 0; attempt++ {
		code, raw, _ := doSort(t, ts.URL, "doomed", doomed)
		switch {
		case code == http.StatusGatewayTimeout && bytes.Contains(raw, []byte("shed")):
			sheds++
		case code == http.StatusOK:
			sortedBody(t, raw, doomed) // dispatched in time: must be correct
		default:
			t.Fatalf("doomed request: status %d body %s", code, raw)
		}
	}
	close(stop)
	wg.Wait()
	if sheds == 0 {
		t.Fatal("no attempt was shed: the queue deadline never fired")
	}
	if got := s.Classes().Get("doomed").DeadlineDrop.Load(); got != sheds {
		t.Fatalf("doomed DeadlineDrop = %d, want %d", got, sheds)
	}
	if bulkOK.Load() == 0 {
		t.Fatal("bulk made no progress")
	}
	if got := s.Stats().Canceled; got != sheds {
		t.Fatalf("canceled = %d, want exactly the shed requests (%d)", got, sheds)
	}
}

// jain is Jain's fairness index over per-client completion counts:
// 1 is perfectly fair, 1/n is one client taking everything.
func jain(xs []int64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += float64(x)
		sq += float64(x) * float64(x)
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// TestQoSStarvationFairnessSoak is the serving-layer starvation
// property test: a priority-0 flood saturates the queue while a
// low-priority trickle keeps arriving, workers churn (kill+respawn)
// inside every sort, and the claim is that aging still serves every
// single trickle request — zero trickle timeouts or errors, every body
// sorted — while the flood clients share capacity fairly among
// themselves (Jain index floor). Runs under -race in the CI qos leg.
func TestQoSStarvationFairnessSoak(t *testing.T) {
	duration := 4 * time.Second
	floodClients := 6
	floodN := 4000
	trickleN := 400
	if testing.Short() {
		duration = 1200 * time.Millisecond
		floodClients = 4
		floodN = 2000
	}
	s, ts := newTestServer(t, Config{
		BatchMaxKeys: -1,
		MaxInFlight:  256,
		Timeout:      30 * time.Second,
		Options:      []wfsort.Option{wfsort.WithChurn(2), wfsort.WithSeed(42)},
		QoS: &qos.Config{
			AgingMs: 25,
			Classes: []qos.ClassQoS{
				{Name: "flood", Rate: 1e6, Burst: 1000, Priority: 0},
				{Name: "trickle", Rate: 1e6, Burst: 1000, Priority: 4},
			},
		},
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	floodOK := make([]int64, floodClients)
	var floodOther atomic.Int64
	for c := 0; c < floodClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				keys := randKeys(rng, floodN)
				code, raw, _ := doSort(t, ts.URL, "flood", keys)
				switch code {
				case http.StatusOK:
					sortedBody(t, raw, keys)
					atomic.AddInt64(&floodOK[c], 1)
				case http.StatusTooManyRequests, http.StatusGatewayTimeout:
					floodOther.Add(1)
				default:
					t.Errorf("flood client %d: status %d (%s)", c, code, raw)
					return
				}
			}
		}(c)
	}

	// The trickle is open-loop: a request every 25ms regardless of how
	// the previous one fared, so queueing delay cannot mask starvation.
	var trickleSent, trickleOK atomic.Int64
	var maxWaitNs atomic.Int64
	var twg sync.WaitGroup
	rng := rand.New(rand.NewSource(7))
	trickleKeys := randKeys(rng, trickleN)
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
trickle:
	for start := time.Now(); time.Since(start) < duration; {
		select {
		case <-ticker.C:
			trickleSent.Add(1)
			twg.Add(1)
			go func() {
				defer twg.Done()
				t0 := time.Now()
				code, raw, _ := doSort(t, ts.URL, "trickle", trickleKeys)
				if code != http.StatusOK {
					t.Errorf("trickle request: status %d (%s)", code, raw)
					return
				}
				sortedBody(t, raw, trickleKeys)
				trickleOK.Add(1)
				if w := time.Since(t0).Nanoseconds(); w > maxWaitNs.Load() {
					maxWaitNs.Store(w)
				}
			}()
		case <-time.After(duration):
			break trickle
		}
	}
	twg.Wait()
	close(stop)
	wg.Wait()

	if trickleSent.Load() == 0 {
		t.Fatal("no trickle traffic generated")
	}
	if trickleOK.Load() != trickleSent.Load() {
		t.Fatalf("trickle: %d of %d completed — low-priority work starved or errored",
			trickleOK.Load(), trickleSent.Load())
	}
	var totalFlood int64
	for c := range floodOK {
		totalFlood += atomic.LoadInt64(&floodOK[c])
	}
	if totalFlood == 0 {
		t.Fatal("flood made no progress at all")
	}
	if j := jain(floodOK); j < 0.5 {
		t.Fatalf("flood fairness collapsed: Jain index %.3f from %v", j, floodOK)
	}

	// The scheduler's own ledger agrees: the trickle class aged its way
	// to the slot and its queue-wait histogram is populated.
	tc := s.Classes().Get("trickle")
	if tc.Admitted.Load() != trickleSent.Load() {
		t.Fatalf("trickle admitted = %d of %d", tc.Admitted.Load(), trickleSent.Load())
	}
	if h := tc.QueueWaitHistogram(); h.Count == 0 {
		t.Fatal("trickle queue-wait histogram is empty — jobs never crossed the scheduler")
	}
	t.Logf("soak: flood ok=%v (Jain %.3f, %d backpressured), trickle %d/%d ok, max trickle latency %v",
		floodOK, jain(floodOK), floodOther.Load(), trickleOK.Load(), trickleSent.Load(),
		time.Duration(maxWaitNs.Load()))
}
