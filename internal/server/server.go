// Package server is the reusable sort service: an HTTP front end over
// the pooled wfsort.Sorter with bounded admission, small-request
// batching, per-request deadlines and graceful drain. cmd/sortd is the
// thin binary around it; the package exists so the whole serving path
// is testable in-process.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wfsort"
	"wfsort/internal/obs"
	"wfsort/internal/qos"
	"wfsort/internal/sizeclass"
	"wfsort/internal/wire"
)

// kv is the element the service sorts: a key plus the batch slot its
// request occupies. Ordering consults only the key, so a batch sort —
// stable, with each request's keys appearing in input order — hands
// every request back its own keys sorted.
type kv struct {
	k int64
	r int32
}

// Config sizes the service; zero values take the defaults noted.
type Config struct {
	// Workers is the sort parallelism per pooled team (default
	// GOMAXPROCS, via wfsort).
	Workers int
	// Options is appended to the pool configuration — variant, layout,
	// seed, fault planes (WithChurn/WithCrashes for soak and E22 runs).
	Options []wfsort.Option
	// PipelineDepth is accepted and ignored: every sort borrows a
	// resident team of its own (see wfsort.WithPipeline).
	//
	// Deprecated: it has no effect; leave it unset.
	PipelineDepth int
	// MaxInFlight bounds admitted requests; excess get 429 (default 64).
	MaxInFlight int
	// MaxKeys rejects larger requests with 413 (default 1<<20).
	MaxKeys int
	// BatchMaxKeys routes requests of at most this many keys through
	// the batcher (default 256; 0 keeps the default, negative disables
	// batching).
	BatchMaxKeys int
	// BatchWindow is how long a batch waits for company after its first
	// request (default 500µs).
	BatchWindow time.Duration
	// BatchLimit flushes a batch once it holds this many keys (default
	// 4096).
	BatchLimit int
	// Timeout is the per-request deadline (default 5s).
	Timeout time.Duration
	// StuckAfter is the serving watchdog threshold: /healthz degrades
	// when the oldest in-flight request exceeds it (default 30s).
	StuckAfter time.Duration
	// SpanDepth sizes the /requests ring (default 256).
	SpanDepth int
	// ClassLimit caps how many distinct traffic classes (the
	// X-Sort-Class request header) get their own counter set before
	// newcomers fold into "other" (default 32).
	ClassLimit int
	// QoS enables the quality-of-service plane: per-class token-bucket
	// admission replaces the flat semaphore's verdicts (the semaphore
	// stays as a memory backstop), the pool's one-slot admission queue
	// orders sorts by priority with aging and deadline shedding
	// (wfsort.WithQueuePolicy), and unknown classes are rejected with
	// 400. Requests then select a class with X-Sort-Class (missing
	// header means "default", which must be configured).
	QoS *qos.Config
	// SLO, when > 0, is the p99 latency objective the burn-rate monitor
	// watches: requests slower than this (or failed outright) burn the
	// error budget, and sustained burn over both windows pages — see
	// obs.Burn. 0 disables the monitor.
	SLO time.Duration
	// BurnShort/BurnLong override the monitor's 5m/1h windows (tests).
	BurnShort, BurnLong time.Duration
	// BurnMinBad overrides the monitor's minimum bad count before a
	// page may fire (tests).
	BurnMinBad int64
	// FlightDir, when set, arms the flight recorder: on an SLO page or
	// a watchdog stuck verdict, one atomic dump (spans + exemplars +
	// burn state + metrics + Perfetto trace) lands here, rate-limited
	// to one per FlightGap.
	FlightDir string
	// FlightGap is the minimum spacing between flight dumps (default
	// 1m).
	FlightGap time.Duration
	// TraceOff disables the request trace plane — trace IDs, stage
	// clocks, exemplar offers, per-stage histograms — leaving only the
	// pre-trace span log. It exists for the benchgate overhead A/B; a
	// production server keeps tracing on.
	TraceOff bool
}

func (c *Config) fill() {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	c.MaxKeys = sizeclass.Limit(c.MaxKeys, sizeclass.DefaultMaxKeys)
	if c.BatchMaxKeys == 0 {
		c.BatchMaxKeys = 256
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 500 * time.Microsecond
	}
	if c.BatchLimit == 0 {
		c.BatchLimit = 4096
	}
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Second
	}
	if c.StuckAfter == 0 {
		c.StuckAfter = 30 * time.Second
	}
}

// Stats is the service's cumulative counter snapshot.
type Stats struct {
	Requests   int64 `json:"requests"`
	Shards     int64 `json:"shard_requests"`
	ShardOK    int64 `json:"shard_ok"`
	Batched    int64 `json:"batched"`
	Batches    int64 `json:"batches"`
	Rejected   int64 `json:"rejected_429"`
	TooLarge   int64 `json:"rejected_413"`
	Draining   int64 `json:"rejected_503"`
	Canceled   int64 `json:"canceled"`
	Errors     int64 `json:"errors"`
	InFlight   int64 `json:"in_flight"`
	OldestMs   int64 `json:"oldest_in_flight_ms"`
	Stuck      bool  `json:"stuck"`
	DrainingOn bool  `json:"draining"`
}

type batchEntry struct {
	keys []int64
	prio int
	done chan batchResult
}

type batchResult struct {
	sorted []int64
	err    error
	// Stage attribution for member requests' spans: when the flusher
	// ran (flushStart non-zero), the merged sort's queue wait and team
	// wall plus its per-phase splits. A member abandoned by its
	// deadline before the flush sees the zero value.
	flushStart time.Time
	queueNs    int64
	sortWallNs int64
	phases     []obs.Stage
}

// Server is one sort service instance.
type Server struct {
	cfg     Config
	pool    *wfsort.Pool
	sorter  *wfsort.KeyedSorter[kv]
	direct  *wfsort.KeyedSorter[int64]
	spans   *obs.SpanLog
	classes *obs.ClassSet
	plane   *qos.Plane          // nil unless cfg.QoS is set
	burn    *obs.Burn           // nil unless cfg.SLO is set
	flight  *obs.FlightRecorder // nil unless cfg.FlightDir is set

	sem     chan struct{}   // admission tokens
	batchCh chan batchEntry // batcher inbox; capacity doubles as its queue bound
	flusher sync.WaitGroup

	reqID    atomic.Uint64
	traceSeq atomic.Uint64
	draining atomic.Bool
	inflight sync.WaitGroup

	// stageHists are server-wide per-stage latency records, indexed by
	// stageNames; flightBusy collapses concurrent flight-dump triggers
	// (and breaks the dump -> metrics -> watchdog -> dump recursion).
	stageHists [len(stageNames)]obs.AtomicHist
	flightBusy atomic.Bool

	requests, batched, batches    atomic.Int64
	rejected, tooLarge, drained   atomic.Int64
	canceled, errCount, inflightN atomic.Int64
	shardReqs, shardOK            atomic.Int64
	latBuckets                    [len(latBounds) + 1]atomic.Int64
	startMu                       sync.Mutex
	starts                        map[uint64]time.Time
}

// latBounds are the latency histogram upper bounds.
var latBounds = [...]time.Duration{
	time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond,
	100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second,
}

// New builds a service and its backing pool.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	classes := obs.NewClassSet(cfg.ClassLimit)
	opts := cfg.Options
	if cfg.Workers > 0 {
		opts = append([]wfsort.Option{wfsort.WithWorkers(cfg.Workers)}, opts...)
	}
	var plane *qos.Plane
	if cfg.QoS != nil {
		if err := cfg.QoS.Validate(); err != nil {
			return nil, fmt.Errorf("server: qos config: %w", err)
		}
		plane = qos.NewPlane(cfg.QoS)
		opts = append(opts, wfsort.WithQueuePolicy(qos.NewSched(cfg.QoS, classObserver{classes})))
	}
	pool, err := wfsort.NewPool(opts...)
	if err != nil {
		return nil, err
	}
	// Both sorters ride the keyed zero-copy path (stable, so the batch
	// demux by slot still works) and share one pool: the batcher sorts
	// kv pairs, the direct path sorts the request's keys in place with
	// no boxing at all.
	sorter, err := wfsort.NewKeyedSorter(func(e kv) uint64 { return wfsort.Int64Key(e.k) }, wfsort.WithPool(pool))
	if err != nil {
		pool.Close()
		return nil, err
	}
	direct, err := wfsort.NewKeyedSorter(wfsort.Int64Key, wfsort.WithPool(pool))
	if err != nil {
		pool.Close()
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		pool:    pool,
		sorter:  sorter,
		direct:  direct,
		spans:   obs.NewSpanLog(cfg.SpanDepth),
		classes: classes,
		plane:   plane,
		burn: obs.NewBurn(obs.BurnConfig{
			SLO:    cfg.SLO,
			Short:  cfg.BurnShort,
			Long:   cfg.BurnLong,
			MinBad: cfg.BurnMinBad,
		}),
		flight:  obs.NewFlightRecorder(cfg.FlightDir, cfg.FlightGap),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		batchCh: make(chan batchEntry, cfg.MaxInFlight),
		starts:  make(map[uint64]time.Time),
	}
	if cfg.BatchMaxKeys > 0 {
		s.flusher.Add(1)
		go s.runFlusher()
	}
	return s, nil
}

// Handler returns the service's full mux:
//
//	POST /sort       — {"keys":[...]} -> {"sorted":[...]}
//	POST /shard      — the cluster tier's shard surface: same request,
//	                   never batched, reply carries the sorted keys'
//	                   sum/xor ledger for the coordinator's cross-check
//	GET  /healthz    — liveness, drain state, watchdog + SLO verdicts
//	GET  /metrics    — Stats + pool counters + latency histograms
//	                   (?format=prom for Prometheus text exposition)
//	GET  /requests   — recent request spans, newest first
//	                   (?class= and ?outcome= filter)
//	GET  /trace/{id} — one request's span by trace ID
//	     /obs/       — the internal/obs live surface (expvar, pprof)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sort", s.handleSort)
	mux.HandleFunc("POST /shard", s.handleShard)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /requests", s.handleRequests)
	mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	mux.Handle("/obs/", http.StripPrefix("/obs", obs.Handler()))
	return mux
}

type sortRequest struct {
	Keys []int64 `json:"keys"`
}

type sortResponse struct {
	Sorted  []int64 `json:"sorted"`
	N       int     `json:"n"`
	Batched bool    `json:"batched,omitempty"`
}

// shardResponse is the /shard reply: the sorted keys plus their
// sum/xor multiset ledger, folded server-side so the cluster
// coordinator can cross-check its own aggregate of what it sent
// against the backend's aggregate of what it sorted.
type shardResponse struct {
	Sorted []int64 `json:"sorted"`
	N      int     `json:"n"`
	Sum    int64   `json:"sum"`
	Xor    int64   `json:"xor"`
}

// classObserver adapts the scheduler's decision stream onto the
// per-class counters. Calls arrive from the pool's admission queue,
// one decision at a time; everything touched is atomic.
type classObserver struct{ classes *obs.ClassSet }

func (o classObserver) JobDispatched(class string, waitNs int64) {
	o.classes.Get(class).ObserveQueueWait(waitNs)
}
func (o classObserver) JobAged(class string)            { o.classes.Get(class).Aged.Add(1) }
func (o classObserver) JobDeadlineDropped(class string) { o.classes.Get(class).DeadlineDrop.Add(1) }

// classOf extracts the request's traffic class from the X-Sort-Class
// header: "default" when absent, rejected (ok=false) when the value
// breaks the class-name syntax shared with loadgen specs and QoS
// configs. Bounding hostile names here keeps them out of map keys and
// metrics labels (the registry additionally caps cardinality).
func classOf(r *http.Request) (name string, ok bool) {
	c := r.Header.Get("X-Sort-Class")
	if c == "" {
		return "default", true
	}
	return c, qos.ValidClassName(c)
}

// retryAfterSecs renders a bucket retry hint as a Retry-After header
// value: whole seconds, rounded up, never below 1.
func retryAfterSecs(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func (s *Server) handleSort(w http.ResponseWriter, r *http.Request) { s.serveSort(w, r, false) }

// handleShard is the cluster tier's backend surface: one shard of a
// coordinator's fan-out. Identical admission (class syntax, QoS
// bucket, semaphore, size limit) and deadline handling as /sort, but
// never batched — shards are the coordinator's own batching unit —
// and the reply carries the sorted ledger.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) { s.serveSort(w, r, true) }

func (s *Server) serveSort(w http.ResponseWriter, r *http.Request, shard bool) {
	start := time.Now()
	kind := "sort"
	if shard {
		kind = "shard"
	}
	traced := !s.cfg.TraceOff
	var trace string
	if traced {
		// Echo the trace ID in every response — including rejections —
		// so a client can always correlate its call with /trace/{id}.
		trace = s.traceOf(r)
		w.Header().Set("X-Trace-Id", trace)
	}
	sc := newStageClock(start, traced)

	name, okName := classOf(r)
	if !okName {
		cc := s.classes.Get(obs.Overflow)
		cc.Requests.Add(1)
		cc.Errors.Add(1)
		httpError(w, http.StatusBadRequest,
			"invalid X-Sort-Class: must be 1-64 chars with no whitespace or quotes")
		return
	}
	cc := s.classes.Get(name)
	cc.Requests.Add(1)
	if s.draining.Load() {
		s.drained.Add(1)
		cc.Shed.Add(1)
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var qosClass *qos.ClassQoS
	if s.plane != nil {
		d := s.plane.Admit(name)
		if !d.Known {
			cc.Errors.Add(1)
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("unknown class %q: not in the QoS config", name))
			return
		}
		if !d.OK {
			s.rejected.Add(1)
			cc.Shed.Add(1)
			sc.mark("admit")
			s.finishSpan(cc, &obs.Span{
				ID: s.reqID.Add(1), Kind: kind, Trace: trace, Class: name,
				Start: start.UnixNano(), Outcome: "shed",
			}, sc, start)
			w.Header().Set("Retry-After", retryAfterSecs(d.RetryAfter))
			httpError(w, http.StatusTooManyRequests, "rate limited: class bucket empty")
			return
		}
		cc.Admitted.Add(1)
		qosClass = d.Class
	}
	sc.mark("admit")
	select {
	case s.sem <- struct{}{}:
	default:
		s.rejected.Add(1)
		cc.Shed.Add(1)
		sc.mark("sem")
		s.finishSpan(cc, &obs.Span{
			ID: s.reqID.Add(1), Kind: kind, Trace: trace, Class: name,
			Start: start.UnixNano(), Outcome: "shed",
		}, sc, start)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "at capacity")
		return
	}
	defer func() { <-s.sem }()
	sc.mark("sem")

	// Codec negotiation: a wire Content-Type means a binary request
	// body; the reply is binary when the request was, or when the
	// client asked via Accept. JSON stays the default both ways.
	wireReq := wire.IsWire(r.Header.Get("Content-Type"))
	wireResp := wireReq || wire.IsWire(r.Header.Get("Accept"))
	var req sortRequest
	if wireReq {
		// The size limit is enforced from the 32-byte header, before any
		// payload allocation — an absurd promised N never costs memory.
		keys, _, err := wire.ReadBlock(r.Body, wire.KindRequest, s.cfg.MaxKeys)
		if err != nil {
			cc.Errors.Add(1)
			if errors.Is(err, wire.ErrTooLarge) {
				s.tooLarge.Add(1)
				httpError(w, http.StatusRequestEntityTooLarge, err.Error())
				return
			}
			httpError(w, http.StatusBadRequest, "bad request: "+err.Error())
			return
		}
		req.Keys = keys
	} else if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		cc.Errors.Add(1)
		httpError(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	}
	n := len(req.Keys)
	if ok, msg := sizeclass.CheckLimit(n, s.cfg.MaxKeys); !ok {
		s.tooLarge.Add(1)
		cc.Errors.Add(1)
		httpError(w, http.StatusRequestEntityTooLarge, msg)
		return
	}
	sc.mark("decode")

	id := s.reqID.Add(1)
	s.requests.Add(1)
	if shard {
		s.shardReqs.Add(1)
	}
	s.inflight.Add(1)
	s.inflightN.Add(1)
	s.startMu.Lock()
	s.starts[id] = start
	s.startMu.Unlock()
	defer func() {
		s.startMu.Lock()
		delete(s.starts, id)
		s.startMu.Unlock()
		s.inflightN.Add(-1)
		s.inflight.Done()
		s.observeLatency(time.Since(start))
	}()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	prio := 0
	if qosClass != nil {
		// The class deadline is a queue deadline: the scheduler sheds
		// the job once it provably cannot be met, issuing the 504 from
		// the queue. cfg.Timeout stays the service-time backstop, so the
		// two planes never race each other for the same instant.
		prio = qosClass.Priority
		q := wfsort.JobQoS{Class: name, Priority: qosClass.Priority}
		if qosClass.DeadlineMs > 0 {
			q.Deadline = start.Add(time.Duration(qosClass.DeadlineMs * float64(time.Millisecond)))
		}
		ctx = wfsort.WithJobQoS(ctx, q)
	}
	var sink *wfsort.SortTrace
	if traced {
		sink = &wfsort.SortTrace{}
	}

	span := obs.Span{ID: id, Kind: kind, Trace: trace, Class: name, Start: start.UnixNano(), N: n, Outcome: "ok"}
	var sorted []int64
	var err error
	// Shards are never batched: the coordinator's scatter IS the
	// batching decision, and folding two coordinators' shards into one
	// arena would couple their failure domains.
	if !shard && s.cfg.BatchMaxKeys > 0 && n <= s.cfg.BatchMaxKeys {
		span.Batched = 1
		var res batchResult
		sorted, res, err = s.sortBatched(ctx, req.Keys, prio)
		if sc.on {
			// The batched segment decomposes as assembly wait (enqueue ->
			// flush), the flusher's queue+team wall, and the remainder
			// (split/deliver plus scheduler slop) as merge.
			prev, seg := sc.take()
			if res.flushStart.IsZero() {
				// Canceled before the flusher picked the entry up.
				sc.push("batch", seg)
			} else {
				batchWait := clampNs(res.flushStart.Sub(prev).Nanoseconds(), seg)
				queue := clampNs(res.queueNs, seg-batchWait)
				sortNs := clampNs(res.sortWallNs-queue, seg-batchWait-queue)
				sc.push("batch", batchWait)
				sc.push("queue", queue)
				sc.push("sort", sortNs)
				sc.push("merge", seg-batchWait-queue-sortNs)
				span.Phases = res.phases
			}
		}
	} else {
		if sink != nil {
			ctx = wfsort.WithSortTrace(ctx, sink)
		}
		sorted, err = s.sortDirect(ctx, req.Keys)
		if sc.on {
			_, seg := sc.take()
			queue := clampNs(sink.QueueWaitNs, seg)
			sc.push("queue", queue)
			sc.push("sort", seg-queue)
			span.Phases = phasesToStages(sink.Phases)
		}
	}
	switch {
	case err == nil:
	case errors.Is(err, wfsort.ErrDeadlineShed):
		// The queue dropped the job before a team ran it: a
		// 504 issued from the queue, never from a worker. Counted with
		// the deadline family so the client/server ledger still balances
		// (loadgen maps any 504 to its deadline outcome).
		s.canceled.Add(1)
		cc.Canceled.Add(1)
		span.Outcome = "shed"
		s.finishSpan(cc, &span, sc, start)
		httpError(w, http.StatusGatewayTimeout, "shed from queue: deadline unmeetable")
		return
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.canceled.Add(1)
		cc.Canceled.Add(1)
		span.Outcome = "canceled"
		s.finishSpan(cc, &span, sc, start)
		// 504 covers both: a closed client connection never reads it.
		httpError(w, http.StatusGatewayTimeout, err.Error())
		return
	default:
		s.errCount.Add(1)
		cc.Errors.Add(1)
		span.Outcome = "error"
		s.finishSpan(cc, &span, sc, start)
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if shard {
		s.shardOK.Add(1)
	}
	switch {
	case wireResp && shard:
		// The block header's sum/xor IS the backend ledger echo the
		// coordinator cross-checks; no separate fields needed.
		w.Header().Set("Content-Type", wire.ContentType)
		wire.WriteBlock(w, wire.KindShardReply, sorted)
	case wireResp:
		w.Header().Set("Content-Type", wire.ContentType)
		w.Header().Set("X-Sort-Batched", strconv.FormatBool(span.Batched == 1))
		wire.WriteBlock(w, wire.KindReply, sorted)
	case shard:
		w.Header().Set("Content-Type", "application/json")
		sum, xor := wire.Fold(sorted)
		json.NewEncoder(w).Encode(shardResponse{Sorted: sorted, N: n, Sum: sum, Xor: xor})
	default:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(sortResponse{Sorted: sorted, N: n, Batched: span.Batched == 1})
	}
	sc.mark("encode")
	cc.OK.Add(1)
	s.finishSpan(cc, &span, sc, start)
	cc.ObserveLatency(span.Duration.Nanoseconds())
}

// sortDirect runs one request as its own pooled sort, in place on the
// decoded key slice via the keyed zero-copy path: no kv boxing, no
// output copy — the request buffer goes in unsorted and comes out
// sorted (or untouched, when the sort is aborted).
func (s *Server) sortDirect(ctx context.Context, keys []int64) ([]int64, error) {
	if err := s.direct.SortContext(ctx, keys); err != nil {
		return nil, err
	}
	return keys, nil
}

// sortBatched enqueues the request for the flusher and waits for its
// share of the merged sort. A request abandoned by its deadline leaves
// the batch unharmed: the flusher completes and the result is dropped.
func (s *Server) sortBatched(ctx context.Context, keys []int64, prio int) ([]int64, batchResult, error) {
	e := batchEntry{keys: keys, prio: prio, done: make(chan batchResult, 1)}
	select {
	case s.batchCh <- e:
	case <-ctx.Done():
		return nil, batchResult{}, ctx.Err()
	}
	s.batched.Add(1)
	select {
	case res := <-e.done:
		return res.sorted, res, res.err
	case <-ctx.Done():
		return nil, batchResult{}, ctx.Err()
	}
}

// runFlusher is the batching loop: wait for a first entry, give it
// BatchWindow to attract company (or until BatchLimit keys), then sort
// the merged batch once and split the results.
func (s *Server) runFlusher() {
	defer s.flusher.Done()
	for {
		first, ok := <-s.batchCh
		if !ok {
			return
		}
		entries := []batchEntry{first}
		total := len(first.keys)
		timer := time.NewTimer(s.cfg.BatchWindow)
	collect:
		for total < s.cfg.BatchLimit {
			select {
			case e, ok := <-s.batchCh:
				if !ok {
					break collect
				}
				entries = append(entries, e)
				total += len(e.keys)
			case <-timer.C:
				break collect
			}
		}
		timer.Stop()
		s.flushBatch(entries, total)
	}
}

func (s *Server) flushBatch(entries []batchEntry, total int) {
	start := time.Now()
	merged := make([]kv, 0, total)
	prio := entries[0].prio
	for ri, e := range entries {
		if e.prio < prio {
			prio = e.prio
		}
		for _, k := range e.keys {
			merged = append(merged, kv{k: k, r: int32(ri)})
		}
	}
	// The merged sort inherits the most urgent member's priority and no
	// deadline: a shed would fail every co-batched request, including
	// ones with time to spare.
	ctx := wfsort.WithJobQoS(context.Background(),
		wfsort.JobQoS{Class: "batch", Priority: prio})
	var sink *wfsort.SortTrace
	if !s.cfg.TraceOff {
		sink = &wfsort.SortTrace{}
		ctx = wfsort.WithSortTrace(ctx, sink)
	}
	sortStart := time.Now()
	err := s.sorter.SortContext(ctx, merged)
	meta := batchResult{flushStart: start, sortWallNs: time.Since(sortStart).Nanoseconds()}
	if sink != nil {
		meta.queueNs = sink.QueueWaitNs
		meta.phases = phasesToStages(sink.Phases)
	}
	if err == nil {
		outs := make([][]int64, len(entries))
		for ri, e := range entries {
			outs[ri] = make([]int64, 0, len(e.keys))
		}
		for _, e := range merged {
			outs[e.r] = append(outs[e.r], e.k)
		}
		for ri, e := range entries {
			res := meta
			res.sorted = outs[ri]
			e.done <- res
		}
	} else {
		for _, e := range entries {
			res := meta
			res.err = err
			e.done <- res
		}
	}
	s.batches.Add(1)
	span := obs.Span{
		ID:       s.reqID.Add(1),
		Kind:     "batch",
		Class:    "batch",
		Start:    start.UnixNano(),
		Duration: time.Since(start),
		N:        total,
		Batched:  len(entries),
		Outcome:  map[bool]string{true: "ok", false: "error"}[err == nil],
	}
	if sink != nil {
		queue := clampNs(meta.queueNs, meta.sortWallNs)
		span.Stages = []obs.Stage{
			{Name: "queue", DurNs: queue},
			{Name: "sort", DurNs: meta.sortWallNs - queue},
			{Name: "merge", DurNs: span.Duration.Nanoseconds() - meta.sortWallNs},
		}
		span.Phases = meta.phases
	}
	s.spans.Append(span)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "application/json")
	code := http.StatusOK
	if st.DrainingOn {
		code = http.StatusServiceUnavailable
	}
	w.WriteHeader(code)
	body := map[string]any{
		"ok":       !st.DrainingOn && !st.Stuck,
		"draining": st.DrainingOn,
		"stuck":    st.Stuck,
	}
	if s.burn != nil {
		body["slo_paging"] = s.burn.Paging()
	}
	json.NewEncoder(w).Encode(body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		s.writeProm(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.metricsMap())
}

// metricsMap assembles the /metrics JSON document; the flight recorder
// embeds the same map in its dumps.
func (s *Server) metricsMap() map[string]any {
	hist := make(map[string]int64, len(latBounds)+1)
	for i := range latBounds {
		hist["le_"+latBounds[i].String()] = s.latBuckets[i].Load()
	}
	hist["inf"] = s.latBuckets[len(latBounds)].Load()
	m := map[string]any{
		"server":     s.Stats(),
		"pool":       s.pool.Stats(),
		"latency_ms": hist,
		"classes":    s.classes.Snapshot(),
	}
	if st := s.stageSnapshot(); len(st) > 0 {
		m["stages"] = st
	}
	if s.plane != nil {
		m["qos"] = s.plane.Snapshot()
	}
	if s.burn != nil {
		m["slo"] = s.burn.Snapshot()
	}
	if s.flight != nil {
		m["flight"] = map[string]any{"dumps": s.flight.Wrote()}
	}
	return m
}

func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	n := 0
	fmt.Sscanf(r.URL.Query().Get("n"), "%d", &n)
	spans := s.spans.Snapshot(n)
	class := r.URL.Query().Get("class")
	outcome := r.URL.Query().Get("outcome")
	if class != "" || outcome != "" {
		kept := spans[:0]
		for _, sp := range spans {
			if (class == "" || sp.Class == class) && (outcome == "" || sp.Outcome == outcome) {
				kept = append(kept, sp)
			}
		}
		spans = kept
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(spans)
}

// handleTrace serves one request's span by trace ID: the span log
// first (recent requests), then the exemplar store (slow requests the
// log already lapped), 404 when neither retains it.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sp, ok := s.spans.Find(id)
	if !ok {
		sp, ok = s.classes.FindExemplar(id)
	}
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("trace %q not retained", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(sp)
}

// Stats snapshots the service counters, including the serving
// watchdog's view of the oldest in-flight request.
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:   s.requests.Load(),
		Shards:     s.shardReqs.Load(),
		ShardOK:    s.shardOK.Load(),
		Batched:    s.batched.Load(),
		Batches:    s.batches.Load(),
		Rejected:   s.rejected.Load(),
		TooLarge:   s.tooLarge.Load(),
		Draining:   s.drained.Load(),
		Canceled:   s.canceled.Load(),
		Errors:     s.errCount.Load(),
		InFlight:   s.inflightN.Load(),
		DrainingOn: s.draining.Load(),
	}
	s.startMu.Lock()
	var oldest time.Time
	for _, t := range s.starts {
		if oldest.IsZero() || t.Before(oldest) {
			oldest = t
		}
	}
	s.startMu.Unlock()
	if !oldest.IsZero() {
		age := time.Since(oldest)
		st.OldestMs = age.Milliseconds()
		st.Stuck = age > s.cfg.StuckAfter
	}
	if st.Stuck {
		// A stuck oldest request is a wait-freedom violation from the
		// serving layer's point of view: capture the scene. The recorder
		// rate-limits and the busy guard breaks the dump -> metrics ->
		// Stats recursion.
		s.tripFlight("watchdog")
	}
	return st
}

// Spans exposes the request span log (for sortd and tests).
func (s *Server) Spans() *obs.SpanLog { return s.spans }

// Classes exposes the per-class counter registry — the serving-side
// half of the load-test instrumentation seam: loadgen measures from
// the client's clock, these counters from the server's, and a capacity
// run can cross-check the two.
func (s *Server) Classes() *obs.ClassSet { return s.classes }

// PoolStats exposes the backing pool's counters.
func (s *Server) PoolStats() wfsort.PoolStats { return s.pool.Stats() }

// QoSPlane exposes the admission plane, nil when QoS is off (for sortd
// and tests).
func (s *Server) QoSPlane() *qos.Plane { return s.plane }

// Burn exposes the SLO burn-rate monitor, nil when cfg.SLO is unset.
func (s *Server) Burn() *obs.Burn { return s.burn }

// Flight exposes the flight recorder, nil when cfg.FlightDir is unset.
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

func (s *Server) observeLatency(d time.Duration) {
	i := sort.Search(len(latBounds), func(i int) bool { return d <= latBounds[i] })
	s.latBuckets[i].Add(1)
}

// Shutdown drains the service: new requests get 503, in-flight ones
// (including queued batch entries) finish, the batcher stops, the pool
// is released. It returns ctx.Err() if the drain outlives ctx, leaving
// the service draining but not torn down.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.cfg.BatchMaxKeys > 0 {
		close(s.batchCh)
		s.flusher.Wait()
	}
	s.pool.Close()
	return nil
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
