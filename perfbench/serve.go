package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"

	"wfsort/internal/obs"
	"wfsort/internal/server"
	"wfsort/internal/wire"
)

var serveMix = workload{
	name:   "serve-mix",
	why:    "two keep-alive clients on loopback sortd, 80% 64-key JSON requests that ride the batcher and 20% 1K-8K-key binary ones: the only workload crossing HTTP, admission, batcher and codecs",
	setUp:  setUpServe,
	floors: map[string]string{"client.rtt": "floor.noop_rtt", "client.request": "floor.stdlib"},
}

const (
	serveClients = 2 // nproc on the reference host; one keep-alive connection each
	smallKeys    = 64
	bulkLo       = 1024
	bulkHi       = 8192
	smallShare   = 0.8
)

type serveInst struct {
	p       params
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	clients [serveClients]*serveClient
}

type serveClient struct {
	tr    *http.Transport
	hc    *http.Client
	r     *rand.Rand
	keys  []int64
	floor []int64
}

func newServeClient(r *rand.Rand) *serveClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &serveClient{
		tr: tr, hc: &http.Client{Transport: tr}, r: r,
		keys: make([]int64, bulkHi), floor: make([]int64, bulkHi),
	}
}

// listen serves h on a fresh loopback listener.
func listen(h http.Handler) (*http.Server, string, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	return hs, "http://" + ln.Addr().String(), served, nil
}

// unlisten stops a listen()ed server and waits for its Serve to return.
func unlisten(hs *http.Server, served chan error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hs.Shutdown(ctx) // an unclean drain still releases the listener
	<-served
}

func setUpServe(p params) (instance, error) {
	srv, err := server.New(server.Config{PipelineDepth: 4})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if p.corrupt {
		h = corruptSortReplies(h)
	}
	hs, base, served, err := listen(h)
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	in := &serveInst{p: p, srv: srv, hs: hs, served: served, base: base}
	for i := range in.clients {
		in.clients[i] = newServeClient(newRand(p.seed, 10+uint64(i)))
	}
	// Warm-up: open both connections and build every size class the
	// mix will borrow, direct and batched.
	wr := newRand(p.seed, 0)
	for i, c := range in.clients {
		for _, n := range []int{smallKeys, smallKeys, bulkLo, 2000, 4000, bulkHi} {
			keys := make([]int64, n)
			genKeys(wr, keys)
			if _, err := c.do(base, keys, n > smallKeys, nil); err != nil {
				in.close()
				return nil, fmt.Errorf("warm-up request on client %d: %w", i, err)
			}
		}
	}
	return in, nil
}

func (in *serveInst) close() {
	for _, c := range in.clients {
		if c != nil {
			c.tr.CloseIdleConnections()
		}
	}
	unlisten(in.hs, in.served)
	in.srv.Shutdown(context.Background())
}

// reqTiming is one request's client-side clock: start, encoded, reply
// read, decoded.
type reqTiming struct {
	start, encoded, replied, decoded time.Time
	trace                            string
}

// do sends one /sort request — JSON for small, binary wire for bulk —
// and returns the decoded sorted keys.
func (c *serveClient) do(base string, keys []int64, bulk bool, t *reqTiming) ([]int64, error) {
	var tm reqTiming
	tm.start = time.Now()
	var body []byte
	ctype := "application/json"
	if bulk {
		body = wire.AppendBlock(nil, wire.KindRequest, keys)
		ctype = wire.ContentType
	} else {
		var err error
		if body, err = json.Marshal(sortBody{Keys: keys}); err != nil {
			return nil, err
		}
	}
	tm.encoded = time.Now()
	req, err := http.NewRequest(http.MethodPost, base+"/sort", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	tm.replied = time.Now()
	tm.trace = resp.Header.Get("X-Trace-Id")
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(reply))
	}
	var sorted []int64
	if bulk {
		if sorted, _, err = wire.ReadBlock(bytes.NewReader(reply), wire.KindReply, 0); err != nil {
			return nil, err
		}
	} else {
		var out sortReply
		if err := json.Unmarshal(reply, &out); err != nil {
			return nil, err
		}
		sorted = out.Sorted
	}
	tm.decoded = time.Now()
	if t != nil {
		*t = tm
	}
	return sorted, nil
}

type sortBody struct {
	Keys []int64 `json:"keys"`
}

type sortReply struct {
	Sorted  []int64 `json:"sorted"`
	N       int     `json:"n"`
	Batched bool    `json:"batched,omitempty"`
}

// clientAcc is one client's share of a pass.
type clientAcc struct {
	ps             *pass
	lat            latencies
	okReqs, okKeys int64
	latNs, floorNs int64
	enc, rtt, dec  [2][]float64 // [small, bulk] ms
	traces         map[string]reqClass
}

type reqClass struct {
	bulk  bool
	rttNs int64
}

func (in *serveInst) measure(d time.Duration, tr *tracer) (*pass, error) {
	before := in.srv.Stats()
	poolBefore := in.srv.PoolStats()
	heap := startHeapSampler()
	start := time.Now()
	deadline := start.Add(d)
	accs := make([]*clientAcc, len(in.clients))
	var wg sync.WaitGroup
	for i, c := range in.clients {
		accs[i] = &clientAcc{ps: newPass(), traces: map[string]reqClass{}}
		wg.Add(1)
		go func(c *serveClient, acc *clientAcc) {
			defer wg.Done()
			in.drive(c, deadline, tr, acc)
		}(c, accs[i])
	}
	wg.Wait()
	wall := time.Since(start)
	peak := heap.stopMiB()

	ps := newPass()
	var all clientAcc
	all.traces = map[string]reqClass{}
	for _, a := range accs {
		ps.attempted += a.ps.attempted
		ps.failed += a.ps.failed
		all.lat.merge(a.lat)
		all.okReqs += a.okReqs
		all.okKeys += a.okKeys
		all.latNs += a.latNs
		all.floorNs += a.floorNs
		for k := 0; k < 2; k++ {
			all.enc[k] = append(all.enc[k], a.enc[k]...)
			all.rtt[k] = append(all.rtt[k], a.rtt[k]...)
			all.dec[k] = append(all.dec[k], a.dec[k]...)
		}
		for id, rc := range a.traces {
			all.traces[id] = rc
		}
	}
	secs := wall.Seconds()
	ps.e2e["keys_per_s"] = float64(all.okKeys) / secs
	ps.e2e["req_per_s"] = float64(all.okReqs) / secs
	ps.e2e["stdlib_ratio"] = ratio(float64(all.latNs), float64(all.floorNs))
	ps.e2e["peak_heap_mib"] = peak
	all.lat.report(ps.e2e)
	fmt.Fprintf(in.p.log, "serve-mix: %d requests in %.2fs, mean client latency %.4f ms vs slices.Sort %.4f ms per request\n",
		ps.attempted, secs, nsMs(all.latNs)/float64(max(ps.attempted, 1)), nsMs(all.floorNs)/float64(max(ps.attempted, 1)))
	if tr == nil {
		return ps, nil
	}

	L := ps.layers
	L["client.encode_ms.json"], L["client.encode_ms.wire"] = mean(all.enc[0]), mean(all.enc[1])
	L["client.decode_ms.json"], L["client.decode_ms.wire"] = mean(all.dec[0]), mean(all.dec[1])
	L["client.rtt_ms.small"], L["client.rtt_ms.bulk"] = mean(all.rtt[0]), mean(all.rtt[1])
	L["floor.stdlib_ms"] = nsMs(all.floorNs) / float64(max(ps.attempted, 1))

	noop, err := noopRTT(tr)
	if err != nil {
		return nil, fmt.Errorf("no-op floor: %w", err)
	}
	L["floor.noop_rtt_ms"] = noop

	after := in.srv.Stats()
	poolAfter := in.srv.PoolStats()
	reqs := float64(after.Requests - before.Requests)
	batched := float64(after.Batched - before.Batched)
	L["server.batch_fill"] = ratio(batched, float64(after.Batches-before.Batches))
	L["server.batched_frac"] = ratio(batched, reqs)
	L["server.rejected"] = float64((after.Rejected + after.TooLarge + after.Draining) - (before.Rejected + before.TooLarge + before.Draining))
	L["server.errors"] = float64(after.Errors - before.Errors)
	L["pool.hit_ratio"] = ratio(float64(poolAfter.Hits-poolBefore.Hits), float64(poolAfter.Gets-poolBefore.Gets))
	L["pool.builds"] = float64(poolAfter.Builds - poolBefore.Builds)

	h := in.srv.Handler()
	stages, err := serverStages(h)
	if err != nil {
		return nil, err
	}
	putStages(L, stages)
	spans, err := recentSpans(h)
	if err != nil {
		return nil, err
	}
	// Join the server's most recent request spans to the client's clock
	// by trace ID: HTTP overhead = round trip - server span - no-op floor.
	var httpMs [2][]float64
	var queue []float64
	phases := map[string][]float64{}
	for _, sp := range spans {
		rc, ok := all.traces[sp.Trace]
		if !ok || sp.Kind != "sort" {
			continue
		}
		k := 0
		if rc.bulk {
			k = 1
		}
		httpMs[k] = append(httpMs[k], nsMs(rc.rttNs-sp.Duration.Nanoseconds())-noop)
		if rc.bulk {
			// Direct-path requests: the crew ran exactly this request.
			queue = append(queue, nsMs(sp.StageDur("queue")))
			for _, ph := range sp.Phases {
				phases[phaseName(ph.Name)] = append(phases[phaseName(ph.Name)], nsMs(ph.DurNs))
			}
		}
	}
	L["client.http_ms.small"], L["client.http_ms.bulk"] = mean(httpMs[0]), mean(httpMs[1])
	L["crew.queue_ms"] = mean(queue)
	for name, v := range phases {
		L["crew.phase_ms."+name] = mean(v)
	}
	return ps, nil
}

// drive is one closed-loop client: the next request goes out only
// after the previous reply has been checked.
func (in *serveInst) drive(c *serveClient, deadline time.Time, tr *tracer, acc *clientAcc) {
	for time.Now().Before(deadline) || (!acc.lat.complete() && acc.ps.failed == 0) {
		bulk := c.r.Float64() >= smallShare
		n := smallKeys
		if bulk {
			n = between(c.r, bulkLo, bulkHi)
		}
		keys := c.keys[:n]
		genKeys(c.r, keys)
		var tm reqTiming
		sorted, err := c.do(in.base, keys, bulk, &tm)

		want := c.floor[:n]
		copy(want, keys)
		f0 := time.Now()
		slices.Sort(want)
		f1 := time.Now()
		ok := err == nil && slices.Equal(sorted, want) && ledgerOf(sorted) == ledgerOf(keys)
		acc.ps.check(ok)
		if !ok {
			continue
		}
		lat := tm.decoded.Sub(tm.start)
		acc.lat.add(bulk, lat)
		acc.okReqs++
		acc.okKeys += int64(n)
		acc.latNs += lat.Nanoseconds()
		acc.floorNs += f1.Sub(f0).Nanoseconds()
		if tr != nil {
			k := 0
			if bulk {
				k = 1
			}
			acc.enc[k] = append(acc.enc[k], ms(tm.encoded.Sub(tm.start)))
			acc.rtt[k] = append(acc.rtt[k], ms(tm.replied.Sub(tm.encoded)))
			acc.dec[k] = append(acc.dec[k], ms(tm.decoded.Sub(tm.replied)))
			acc.traces[tm.trace] = reqClass{bulk: bulk, rttNs: tm.replied.Sub(tm.encoded).Nanoseconds()}
			req := tr.req()
			root := tr.add("client.request", 0, req, tm.start, tm.decoded)
			tr.add("client.encode", root, req, tm.start, tm.encoded)
			tr.add("client.rtt", root, req, tm.encoded, tm.replied)
			tr.add("client.decode", root, req, tm.replied, tm.decoded)
			tr.add("floor.stdlib", 0, req, f0, f1)
		}
	}
}

// noopRTT is the loopback HTTP floor: the median round trip of a
// small-request body to a handler that reads it and answers "{}", over
// one keep-alive connection configured like the load clients'.
func noopRTT(tr *tracer) (float64, error) {
	hs, base, served, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{}\n")
	}))
	if err != nil {
		return 0, err
	}
	defer unlisten(hs, served)
	c := newServeClient(nil)
	defer c.tr.CloseIdleConnections()
	body, err := json.Marshal(sortBody{Keys: make([]int64, smallKeys)})
	if err != nil {
		return 0, err
	}
	const probes = 200
	var rtts []float64
	for i := 0; i < probes; i++ {
		t0 := time.Now()
		resp, err := c.hc.Post(base+"/sort", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		t1 := time.Now()
		rtts = append(rtts, ms(t1.Sub(t0)))
		tr.add("floor.noop_rtt", 0, tr.req(), t0, t1)
	}
	return median(rtts[probes/10:]), nil // the first tenth opens the connection
}

// stageSummary is one entry of /metrics' "stages" block.
type stageSummary struct {
	Count  int64   `json:"count"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// serverStages reads the /metrics stage histograms of each server and
// merges them: count-weighted mean, worst p99.
func serverStages(hs ...http.Handler) (map[string]stageSummary, error) {
	out := map[string]stageSummary{}
	for _, h := range hs {
		var doc struct {
			Stages map[string]stageSummary `json:"stages"`
		}
		if err := getJSON(h, "/metrics", &doc); err != nil {
			return nil, err
		}
		for name, st := range doc.Stages {
			acc := out[name]
			total := acc.Count + st.Count
			acc.MeanMs = ratio(acc.MeanMs*float64(acc.Count)+st.MeanMs*float64(st.Count), float64(total))
			acc.P99Ms = max(acc.P99Ms, st.P99Ms)
			acc.Count = total
			out[name] = acc
		}
	}
	return out, nil
}

// putStages stores stage summaries as server.stage_ms.<stage>.{mean,p99}.
func putStages(L map[string]float64, stages map[string]stageSummary) {
	for name, st := range stages {
		L["server.stage_ms."+name+".mean"] = st.MeanMs
		L["server.stage_ms."+name+".p99"] = st.P99Ms
	}
}

// recentSpans reads the server's request span ring.
func recentSpans(h http.Handler) ([]obs.Span, error) {
	var spans []obs.Span
	err := getJSON(h, "/requests", &spans)
	return spans, err
}

// getJSON serves one GET in-process and decodes the JSON reply.
func getJSON(h http.Handler, path string, v any) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// corruptSortReplies is the self-test's faulty target: it flips one key
// of every successful /sort reply and re-encodes it consistently, so
// only the benchmark's own oracle can notice.
func corruptSortReplies(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && r.URL.Path == "/sort" {
			if wire.IsWire(rec.Header().Get("Content-Type")) {
				if keys, _, err := wire.ReadBlock(bytes.NewReader(body), wire.KindReply, 0); err == nil && len(keys) > 0 {
					keys[len(keys)/2] ^= 1
					body = wire.AppendBlock(nil, wire.KindReply, keys)
				}
			} else {
				var out sortReply
				if err := json.Unmarshal(body, &out); err == nil && len(out.Sorted) > 0 {
					out.Sorted[len(out.Sorted)/2] ^= 1
					if b, err := json.Marshal(out); err == nil {
						body = b
					}
				}
			}
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}
