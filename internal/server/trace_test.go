package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wfsort/internal/obs"
	"wfsort/internal/qos"
)

// postSortTraced posts keys with an X-Trace-Id (and optional class)
// and returns the response plus the echoed trace ID. The reply is read
// to EOF: its last chunk leaves only when the handler returns, after
// the request's span is finished, so /trace, /requests and /metrics
// read afterwards see this request.
func postSortTraced(t *testing.T, url, traceID, class string, keys []int64) (*http.Response, string) {
	t.Helper()
	body, _ := json.Marshal(sortRequest{Keys: keys})
	req, err := http.NewRequest(http.MethodPost, url+"/sort", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	if class != "" {
		req.Header.Set("X-Sort-Class", class)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, resp.Header.Get("X-Trace-Id")
}

// getTrace fetches /trace/{id} and decodes the span.
func getTrace(t *testing.T, url, id string) (obs.Span, int) {
	t.Helper()
	resp, err := http.Get(url + "/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sp obs.Span
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sp); err != nil {
			t.Fatal(err)
		}
	}
	return sp, resp.StatusCode
}

func getRequests(t *testing.T, url, query string) []obs.Span {
	t.Helper()
	resp, err := http.Get(url + "/requests" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var spans []obs.Span
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatal(err)
	}
	return spans
}

// checkStagePartition asserts the span's stages sum to its wall
// duration within 5% — the property that makes the attribution a
// partition rather than a collection of overlapping timers.
func checkStagePartition(t *testing.T, sp obs.Span) {
	t.Helper()
	if len(sp.Stages) == 0 {
		t.Fatalf("span %q has no stages", sp.Trace)
	}
	var sum int64
	for _, st := range sp.Stages {
		if st.DurNs < 0 {
			t.Fatalf("stage %s has negative duration %d", st.Name, st.DurNs)
		}
		sum += st.DurNs
	}
	wall := sp.Duration.Nanoseconds()
	diff := wall - sum
	if diff < 0 {
		diff = -diff
	}
	if wall > 0 && float64(diff)/float64(wall) > 0.05 {
		t.Fatalf("stage sum %dns vs wall %dns: off by %.1f%% (stages %+v)",
			sum, wall, 100*float64(diff)/float64(wall), sp.Stages)
	}
}

// TestTraceEchoAndStagePartition: a client-supplied trace ID is echoed
// and resolvable at /trace/{id}, and the span's stages partition its
// wall time on both the direct and batched paths.
func TestTraceEchoAndStagePartition(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(5))

	large := randKeys(rng, 20000)
	resp, echoed := postSortTraced(t, ts.URL, "cli-abc.1", "", large)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if echoed != "cli-abc.1" {
		t.Fatalf("echoed trace %q, want cli-abc.1", echoed)
	}
	sp, code := getTrace(t, ts.URL, "cli-abc.1")
	if code != http.StatusOK {
		t.Fatalf("/trace: status %d", code)
	}
	if sp.Trace != "cli-abc.1" || sp.Outcome != "ok" || sp.N != 20000 {
		t.Fatalf("span = %+v", sp)
	}
	checkStagePartition(t, sp)
	for _, want := range []string{"admit", "sem", "decode", "queue", "sort", "encode"} {
		found := false
		for _, st := range sp.Stages {
			if st.Name == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("direct span missing stage %q: %+v", want, sp.Stages)
		}
	}
	if sp.StageDur("sort") <= 0 {
		t.Fatalf("sort stage empty: %+v", sp.Stages)
	}
	if len(sp.Phases) == 0 {
		t.Fatalf("direct span has no team phases: %+v", sp)
	}

	small := randKeys(rng, 30)
	resp, _ = postSortTraced(t, ts.URL, "cli-batched", "", small)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batched: status %d", resp.StatusCode)
	}
	bsp, code := getTrace(t, ts.URL, "cli-batched")
	if code != http.StatusOK {
		t.Fatalf("/trace batched: status %d", code)
	}
	if bsp.Batched != 1 {
		t.Fatalf("batched span = %+v", bsp)
	}
	checkStagePartition(t, bsp)
	if bsp.StageDur("batch") == 0 && bsp.StageDur("queue") == 0 && bsp.StageDur("sort") == 0 {
		t.Fatalf("batched span has no batch/queue/sort attribution: %+v", bsp.Stages)
	}

	// The slowest request must have landed in the class's exemplars
	// with its stages intact.
	ex := s.Classes().Get("default").Exemplars.Snapshot()
	if len(ex) == 0 {
		t.Fatal("no exemplars retained")
	}
	checkStagePartition(t, ex[0])
}

// TestTraceMinted: without (or with an invalid) client header the
// server mints a syntactically valid ID and the round trip still works.
func TestTraceMinted(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, minted := postSortTraced(t, ts.URL, "", "", []int64{3, 1, 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if minted == "" {
		t.Fatal("no X-Trace-Id echoed on a header-less request")
	}
	if sp, code := getTrace(t, ts.URL, minted); code != http.StatusOK || sp.Trace != minted {
		t.Fatalf("/trace/%s: code %d span %+v", minted, code, sp)
	}

	// A hostile ID (embedded space) is replaced, not echoed.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/sort", strings.NewReader(`{"keys":[2,1]}`))
	req.Header.Set("X-Trace-Id", "bad id")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Trace-Id"); got == "bad id" || got == "" {
		t.Fatalf("invalid trace ID handling: echoed %q", got)
	}

	if _, code := getTrace(t, ts.URL, "never-seen"); code != http.StatusNotFound {
		t.Fatalf("/trace on unknown ID: status %d, want 404", code)
	}
}

// TestRejectionSpansAndRequestFilters: both 429 families — semaphore
// and QoS bucket — record shed spans with their stage prefix, and the
// /requests class/outcome filters carve the log correctly.
func TestRejectionSpansAndRequestFilters(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2})
	keys := []int64{5, 2, 9}
	if resp, _ := postSortTraced(t, ts.URL, "", "gold", keys); resp.StatusCode != http.StatusOK {
		t.Fatalf("gold request: status %d", resp.StatusCode)
	}
	if resp, _ := postSortTraced(t, ts.URL, "", "dirt", keys); resp.StatusCode != http.StatusOK {
		t.Fatalf("dirt request: status %d", resp.StatusCode)
	}
	// Saturate the semaphore so the next request sheds.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	resp, _ := postSortTraced(t, ts.URL, "sem-shed-1", "gold", keys)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated: status %d, want 429", resp.StatusCode)
	}
	<-s.sem
	<-s.sem

	shed := getRequests(t, ts.URL, "?outcome=shed")
	if len(shed) != 1 || shed[0].Trace != "sem-shed-1" || shed[0].Class != "gold" {
		t.Fatalf("shed spans = %+v", shed)
	}
	// The rejection span carries the stage prefix it crossed: admit
	// then the semaphore wait it lost.
	if shed[0].StageDur("sem") == 0 && shed[0].StageDur("admit") == 0 {
		t.Fatalf("shed span has no admission stages: %+v", shed[0].Stages)
	}
	gold := getRequests(t, ts.URL, "?class=gold")
	if len(gold) != 2 {
		t.Fatalf("gold spans = %d, want 2 (ok + shed)", len(gold))
	}
	goldOK := getRequests(t, ts.URL, "?class=gold&outcome=ok")
	if len(goldOK) != 1 || goldOK[0].Outcome != "ok" {
		t.Fatalf("gold ok spans = %+v", goldOK)
	}

	// Bucket-429: a one-token class sheds its second request from the
	// admission stage, before the semaphore.
	s2, ts2 := newTestServer(t, Config{
		BatchMaxKeys: -1,
		QoS:          &qos.Config{Classes: []qos.ClassQoS{{Name: "default", Rate: 0.1, Burst: 1}}},
	})
	if resp, _ := postSortTraced(t, ts2.URL, "", "", keys); resp.StatusCode != http.StatusOK {
		t.Fatalf("bucket: first request status %d", resp.StatusCode)
	}
	resp, _ = postSortTraced(t, ts2.URL, "bucket-shed-1", "", keys)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("bucket-empty request: status %d, want 429", resp.StatusCode)
	}
	bshed := getRequests(t, ts2.URL, "?outcome=shed")
	if len(bshed) != 1 || bshed[0].Trace != "bucket-shed-1" {
		t.Fatalf("bucket shed spans = %+v", bshed)
	}
	if len(bshed[0].Stages) == 0 || bshed[0].Stages[0].Name != "admit" {
		t.Fatalf("bucket shed span stages = %+v", bshed[0].Stages)
	}
	_ = s2
}

// TestBurnPagesAndFlightDump is the seeded overload replay: with a
// floor-level SLO every served request burns budget, the monitor pages
// within the shrunken windows, /healthz says so, and exactly one
// flight dump (rate-limited by FlightGap) lands with spans, exemplars,
// burn state, metrics and the Perfetto companion.
func TestBurnPagesAndFlightDump(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{
		SLO:        time.Nanosecond,
		BurnShort:  200 * time.Millisecond,
		BurnLong:   400 * time.Millisecond,
		BurnMinBad: 5,
		FlightDir:  dir,
		FlightGap:  time.Hour,
	})
	for i := 0; i < 20; i++ {
		resp, _ := postSort(t, ts.URL, []int64{3, 1, 2})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	if !s.Burn().Paging() {
		t.Fatal("burn monitor not paging after the overload replay")
	}
	var hz map[string]any
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if paging, _ := hz["slo_paging"].(bool); !paging {
		t.Fatalf("/healthz slo_paging = %v, want true (%v)", hz["slo_paging"], hz)
	}

	dumps, err := filepath.Glob(filepath.Join(dir, "flight-slo-burn-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Filter the perfetto companions out of the record glob.
	records := dumps[:0]
	for _, d := range dumps {
		if !strings.HasSuffix(d, ".perfetto.json") {
			records = append(records, d)
		}
	}
	if len(records) != 1 {
		t.Fatalf("flight records = %v, want exactly 1 (FlightGap must rate-limit)", records)
	}
	data, err := os.ReadFile(records[0])
	if err != nil {
		t.Fatal(err)
	}
	var rec obs.FlightRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Reason != "slo-burn" || len(rec.Spans) == 0 || rec.Burn == nil || len(rec.Metrics) == 0 {
		t.Fatalf("flight record incomplete: reason=%q spans=%d burn=%v metrics=%dB",
			rec.Reason, len(rec.Spans), rec.Burn != nil, len(rec.Metrics))
	}
	if !rec.Burn.Paging {
		t.Fatal("flight record snapshotted a non-paging burn state")
	}
	perfetto := strings.TrimSuffix(records[0], ".json") + ".perfetto.json"
	if _, err := os.Stat(perfetto); err != nil {
		t.Fatalf("perfetto companion missing: %v", err)
	}
	if s.Flight().Wrote() != 1 {
		t.Fatalf("flight wrote = %d, want 1", s.Flight().Wrote())
	}
}

// TestBurnSilentOnFaultlessRun: a healthy run under a generous SLO
// never pages and never dumps.
func TestBurnSilentOnFaultlessRun(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{SLO: 10 * time.Second, FlightDir: dir})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30; i++ {
		resp, out := postSort(t, ts.URL, randKeys(rng, 40))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if len(out.Sorted) != 40 {
			t.Fatalf("request %d: %d keys back", i, len(out.Sorted))
		}
	}
	if s.Burn().Paging() {
		t.Fatal("burn monitor paging on a faultless run")
	}
	if snap := s.Burn().Snapshot(); snap.Pages != 0 || snap.Bad != 0 {
		t.Fatalf("burn snapshot on faultless run: %+v", snap)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("flight dir not empty on a faultless run: %v", files)
	}
}

// TestMetricsPromFormat: ?format=prom renders the scrape surface.
func TestMetricsPromFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{SLO: 10 * time.Second, FlightDir: t.TempDir()})
	rng := rand.New(rand.NewSource(2))
	postSort(t, ts.URL, randKeys(rng, 2000))
	postSort(t, ts.URL, randKeys(rng, 20))

	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	out := buf.String()
	for _, want := range []string{
		"# TYPE wfsort_requests_total counter",
		"wfsort_requests_total 2",
		`wfsort_class_requests_total{class="default"} 2`,
		`wfsort_stage_seconds_bucket{le="+Inf",stage="sort"}`,
		"wfsort_slo_paging 0",
		"wfsort_flight_dumps_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

// TestTraceOff: the comparator knob really turns the plane off — no
// trace header, no stages — while requests still serve and span
// accounting (outcomes) survives for the ops surface.
func TestTraceOff(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceOff: true})
	rng := rand.New(rand.NewSource(3))
	keys := randKeys(rng, 2000)
	resp, echoed := postSortTraced(t, ts.URL, "cli-1", "", keys)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if echoed != "" {
		t.Fatalf("TraceOff still echoed trace %q", echoed)
	}
	spans := getRequests(t, ts.URL, "")
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	if spans[0].Trace != "" || len(spans[0].Stages) != 0 {
		t.Fatalf("TraceOff span still instrumented: %+v", spans[0])
	}
	if spans[0].Outcome != "ok" {
		t.Fatalf("outcome = %q", spans[0].Outcome)
	}
}

// TestStageHistogramsAccumulate: the server-wide stage summaries in
// /metrics cover each lifecycle stage that actually ran.
func TestStageHistogramsAccumulate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5; i++ {
		postSort(t, ts.URL, randKeys(rng, 3000))
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Stages map[string]struct {
			Count  int64   `json:"count"`
			P99Ms  float64 `json:"p99_ms"`
			MeanMs float64 `json:"mean_ms"`
		} `json:"stages"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"admit", "sem", "decode", "queue", "sort", "encode"} {
		st, ok := m.Stages[stage]
		if !ok {
			t.Fatalf("stage %q missing from /metrics (have %v)", stage, m.Stages)
		}
		if st.Count != 5 {
			t.Fatalf("stage %q count = %d, want 5", stage, st.Count)
		}
	}
	if m.Stages["sort"].MeanMs <= 0 {
		t.Fatalf("sort stage mean = %v", m.Stages["sort"].MeanMs)
	}
}
