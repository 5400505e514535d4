// This file is the coordinator's backend seam: the Transport interface
// one sortd backend is driven through, with an HTTP implementation for
// live fleets, an in-process handler implementation for tests and
// gates (no sockets, race-detector friendly), and the KillSwitch
// fail-stop wrapper the chaos legs use to take a backend down
// deterministically mid-sort.

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"time"

	"wfsort/internal/wire"
)

// Header names shared with internal/server and internal/loadgen.
const (
	ClassHeader = "X-Sort-Class"
	TraceHeader = "X-Trace-Id"
)

// ShardRequest is one shard dispatch: the key range plus the QoS
// identity the coordinator propagates across the fan-out — the
// caller's traffic class, the per-shard trace ID (derived from the
// caller's, so the PR 8 trace plane spans the whole scatter), and the
// deadline, which rides the context.
type ShardRequest struct {
	Class   string
	TraceID string
	Keys    []int64
}

// ShardReply is a backend's answer as the transport saw it. Status is
// the HTTP status; Sorted/N/Sum/Xor are the decoded body on 200 (the
// /shard endpoint echoes the sorted keys' sum/xor ledger so the
// coordinator can cross-check its own fold against the backend's).
// TraceEcho is the X-Trace-Id header the backend sent back.
type ShardReply struct {
	Status     int
	Sorted     []int64
	N          int
	Sum, Xor   int64
	TraceEcho  string
	RetryAfter time.Duration // backpressure hint on 429, 0 if absent
}

// Probe is one health-probe result: liveness from /healthz plus the
// load and ledger counters from /metrics that feed the least-loaded
// policy and the soak's coordinator-vs-backend cross-check.
type Probe struct {
	Healthy  bool
	Draining bool
	InFlight int64
	ShardOK  int64
}

// Transport drives one backend. Implementations must be safe for
// concurrent use: the coordinator scatters shards from many
// goroutines. SortShard returns an error only for transport-level
// failures (connection refused, timeout, undecodable body); an
// application-level rejection is a ShardReply with a non-200 status.
type Transport interface {
	SortShard(ctx context.Context, req ShardRequest) (*ShardReply, error)
	Probe(ctx context.Context) (Probe, error)
	Name() string
}

type shardRequestBody struct {
	Keys []int64 `json:"keys"`
}

type shardReplyBody struct {
	Sorted []int64 `json:"sorted"`
	N      int     `json:"n"`
	Sum    int64   `json:"sum"`
	Xor    int64   `json:"xor"`
}

type healthzBody struct {
	OK bool `json:"ok"`
}

type metricsServerBody struct {
	Server struct {
		InFlight int64 `json:"in_flight"`
		ShardOK  int64 `json:"shard_ok"`
		Draining bool  `json:"draining"`
	} `json:"server"`
}

// encodeShard builds one shard request body in the chosen codec. The
// binary block carries the keys' sum/xor in its header, so a wire
// backend gets the coordinator's ledger for free.
func encodeShard(wireOn bool, keys []int64) ([]byte, string, error) {
	if wireOn {
		return wire.AppendBlock(nil, wire.KindRequest, keys), wire.ContentType, nil
	}
	body, err := json.Marshal(shardRequestBody{Keys: keys})
	return body, "application/json", err
}

// decodeShard fills reply from a 200 body, keyed off the response
// Content-Type rather than what was requested: the sorted keys and the
// backend's sum/xor ledger land in the same fields either way (a wire
// reply's ledger rides the block header). Decoding a binary reply also
// verifies the header ledger against the payload — transport-level
// corruption fails here, before the coordinator's own cross-check.
func decodeShard(contentType string, body io.Reader, reply *ShardReply) error {
	if wire.IsWire(contentType) {
		sorted, h, err := wire.ReadBlock(body, wire.KindShardReply, 0)
		if err != nil {
			return fmt.Errorf("decoding shard reply: %w", err)
		}
		reply.Sorted, reply.N, reply.Sum, reply.Xor = sorted, h.N, h.Sum, h.Xor
		return nil
	}
	var out shardReplyBody
	if err := json.NewDecoder(body).Decode(&out); err != nil {
		return fmt.Errorf("decoding shard reply: %w", err)
	}
	reply.Sorted, reply.N, reply.Sum, reply.Xor = out.Sorted, out.N, out.Sum, out.Xor
	return nil
}

// HTTPBackend drives a live sortd instance over the network.
type HTTPBackend struct {
	// URL is the backend base ("http://host:port"); /shard, /healthz
	// and /metrics are appended.
	URL string
	// Client is the HTTP client (default http.DefaultClient). Per-shard
	// deadlines ride the request context, so the client's own Timeout
	// should be generous or absent.
	Client *http.Client
	// Wire switches shard dispatch to the binary codec: requests go out
	// as wire blocks and the backend answers in kind. Probes stay JSON.
	Wire bool
}

func (b *HTTPBackend) Name() string { return b.URL }

func (b *HTTPBackend) client() *http.Client {
	if b.Client != nil {
		return b.Client
	}
	return http.DefaultClient
}

func (b *HTTPBackend) SortShard(ctx context.Context, sr ShardRequest) (*ShardReply, error) {
	body, contentType, err := encodeShard(b.Wire, sr.Keys)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.URL+"/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(ClassHeader, sr.Class)
	req.Header.Set(TraceHeader, sr.TraceID)
	resp, err := b.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply := &ShardReply{Status: resp.StatusCode, TraceEcho: resp.Header.Get(TraceHeader)}
	if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
		reply.RetryAfter = time.Duration(s) * time.Second
	}
	if resp.StatusCode != http.StatusOK {
		return reply, nil
	}
	if err := decodeShard(resp.Header.Get("Content-Type"), resp.Body, reply); err != nil {
		return nil, err
	}
	return reply, nil
}

func (b *HTTPBackend) Probe(ctx context.Context) (Probe, error) {
	var p Probe
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/healthz", nil)
	if err != nil {
		return p, err
	}
	hresp, err := b.client().Do(hreq)
	if err != nil {
		return p, err
	}
	var hb healthzBody
	err = json.NewDecoder(hresp.Body).Decode(&hb)
	hresp.Body.Close()
	if err != nil {
		return p, fmt.Errorf("decoding healthz: %w", err)
	}
	p.Healthy = hb.OK
	mreq, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/metrics", nil)
	if err != nil {
		return p, err
	}
	mresp, err := b.client().Do(mreq)
	if err != nil {
		return p, err
	}
	var mb metricsServerBody
	err = json.NewDecoder(mresp.Body).Decode(&mb)
	mresp.Body.Close()
	if err != nil {
		return p, fmt.Errorf("decoding metrics: %w", err)
	}
	p.InFlight = mb.Server.InFlight
	p.ShardOK = mb.Server.ShardOK
	p.Draining = mb.Server.Draining
	return p, nil
}

// HandlerBackend drives a backend's http.Handler in-process — the
// transport the cluster test harness, the soak and benchgate's cluster
// cell run on, so the whole fan-out is exercised under the race
// detector without sockets. internal/server's Handler() plugs in
// directly.
type HandlerBackend struct {
	Handler http.Handler
	// Label names the backend in stats and errors (default "handler").
	Label string
	// Wire switches shard dispatch to the binary codec, as on
	// HTTPBackend — the gates compare codecs over this seam.
	Wire bool
}

func (b *HandlerBackend) Name() string {
	if b.Label != "" {
		return b.Label
	}
	return "handler"
}

func (b *HandlerBackend) SortShard(ctx context.Context, sr ShardRequest) (*ShardReply, error) {
	body, contentType, err := encodeShard(b.Wire, sr.Keys)
	if err != nil {
		return nil, err
	}
	req := httptest.NewRequest(http.MethodPost, "/shard", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(ClassHeader, sr.Class)
	req.Header.Set(TraceHeader, sr.TraceID)
	rec := httptest.NewRecorder()
	b.Handler.ServeHTTP(rec, req)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	reply := &ShardReply{Status: rec.Code, TraceEcho: rec.Header().Get(TraceHeader)}
	if s, err := strconv.Atoi(rec.Header().Get("Retry-After")); err == nil && s > 0 {
		reply.RetryAfter = time.Duration(s) * time.Second
	}
	if rec.Code != http.StatusOK {
		return reply, nil
	}
	if err := decodeShard(rec.Header().Get("Content-Type"), rec.Body, reply); err != nil {
		return nil, err
	}
	return reply, nil
}

func (b *HandlerBackend) Probe(ctx context.Context) (Probe, error) {
	var p Probe
	hrec := httptest.NewRecorder()
	b.Handler.ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/healthz", nil).WithContext(ctx))
	var hb healthzBody
	if err := json.NewDecoder(hrec.Body).Decode(&hb); err != nil {
		return p, fmt.Errorf("decoding healthz: %w", err)
	}
	p.Healthy = hb.OK
	mrec := httptest.NewRecorder()
	b.Handler.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil).WithContext(ctx))
	var mb metricsServerBody
	if err := json.NewDecoder(mrec.Body).Decode(&mb); err != nil {
		return p, fmt.Errorf("decoding metrics: %w", err)
	}
	p.InFlight = mb.Server.InFlight
	p.ShardOK = mb.Server.ShardOK
	p.Draining = mb.Server.Draining
	return p, nil
}

// KillSwitch wraps a Transport with a deterministic fail-stop: after
// Kill (or after KillAfter(n) further shard requests), every call
// fails with ErrKilled until Revive. It models a backend host dying
// mid-fan-out — the chaos leg the redispatch machinery is certified
// against — with the same determinism the fault plane gives worker
// kills: the nth shard request is the last one served, every run.
type KillSwitch struct {
	T Transport
	// killed: 1 while dead. killAt: the SortShard ordinal (1-based)
	// that first fails, 0 = no scheduled kill. calls: served ordinal.
	killed  atomic.Bool
	killAt  atomic.Int64
	calls   atomic.Int64
	refused atomic.Int64
}

// Kill takes the backend down immediately.
func (k *KillSwitch) Kill() { k.killed.Store(true) }

// Revive brings it back (and clears any scheduled kill).
func (k *KillSwitch) Revive() {
	k.killAt.Store(0)
	k.killed.Store(false)
}

// KillAfter schedules the fail-stop: the backend serves n more shard
// requests, then dies.
func (k *KillSwitch) KillAfter(n int) { k.killAt.Store(k.calls.Load() + int64(n) + 1) }

// Refused reports how many calls the dead backend turned away.
func (k *KillSwitch) Refused() int64 { return k.refused.Load() }

func (k *KillSwitch) Name() string { return k.T.Name() }

func (k *KillSwitch) down() bool {
	if k.killed.Load() {
		return true
	}
	if at := k.killAt.Load(); at > 0 && k.calls.Load() >= at {
		k.killed.Store(true)
		return true
	}
	return false
}

func (k *KillSwitch) SortShard(ctx context.Context, sr ShardRequest) (*ShardReply, error) {
	k.calls.Add(1)
	if k.down() {
		k.refused.Add(1)
		return nil, ErrKilled
	}
	return k.T.SortShard(ctx, sr)
}

func (k *KillSwitch) Probe(ctx context.Context) (Probe, error) {
	if k.down() {
		return Probe{}, ErrKilled
	}
	return k.T.Probe(ctx)
}
