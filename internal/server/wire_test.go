package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"testing"

	"wfsort/internal/wire"
)

// postWire sends keys as a binary block to path and decodes the binary
// reply, returning the response for status/header checks.
func postWire(t *testing.T, url, path string, keys []int64) (*http.Response, []int64, wire.Header) {
	t.Helper()
	body := wire.AppendBlock(nil, wire.KindRequest, keys)
	resp, err := http.Post(url+path, wire.ContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp, nil, wire.Header{}
	}
	if ct := resp.Header.Get("Content-Type"); !wire.IsWire(ct) {
		t.Fatalf("binary request answered with Content-Type %q", ct)
	}
	wantKind := byte(wire.KindReply)
	if path == "/shard" {
		wantKind = wire.KindShardReply
	}
	sorted, h, err := wire.ReadBlock(resp.Body, wantKind, 0)
	if err != nil {
		t.Fatalf("decode %s reply: %v", path, err)
	}
	return resp, sorted, h
}

// TestWireSortRoundTrip drives both serving paths — direct large sorts
// and batched small ones — entirely over the binary codec.
func TestWireSortRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(41))

	large := randKeys(rng, 5000)
	resp, sorted, _ := postWire(t, ts.URL, "/sort", large)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("large binary sort: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Sort-Batched") != "false" {
		t.Fatalf("large binary sort batched=%q", resp.Header.Get("X-Sort-Batched"))
	}
	checkSortedKeys(t, sorted, large)

	small := randKeys(rng, 20)
	resp, sorted, _ = postWire(t, ts.URL, "/sort", small)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small binary sort: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Sort-Batched") != "true" {
		t.Fatal("small binary request should ride the batcher")
	}
	checkSortedKeys(t, sorted, small)

	for _, keys := range [][]int64{{}, {42}, {5, 5, 5, 5}} {
		resp, sorted, _ := postWire(t, ts.URL, "/sort", keys)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("keys=%v: status %d", keys, resp.StatusCode)
		}
		checkSortedKeys(t, sorted, keys)
	}
}

// TestWireShardLedger checks the /shard binary reply: the block
// header's sum/xor IS the ledger the coordinator cross-checks, so it
// must equal the fold of the input keys.
func TestWireShardLedger(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(42))
	keys := randKeys(rng, 3000)
	wantSum, wantXor := wire.Fold(keys)

	resp, sorted, h := postWire(t, ts.URL, "/shard", keys)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	checkSortedKeys(t, sorted, keys)
	if h.Sum != wantSum || h.Xor != wantXor {
		t.Fatalf("shard header ledger (%d,%d), want (%d,%d)", h.Sum, h.Xor, wantSum, wantXor)
	}
	if h.N != len(keys) {
		t.Fatalf("shard header N=%d, want %d", h.N, len(keys))
	}
}

// TestWireAcceptNegotiation: a JSON request with Accept set to the
// wire type gets a binary reply; without it, JSON stays the default in
// both directions.
func TestWireAcceptNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	keys := []int64{9, 3, 7, 1, 5}
	body, _ := json.Marshal(sortRequest{Keys: keys})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/sort", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !wire.IsWire(ct) {
		t.Fatalf("Accept-negotiated reply has Content-Type %q", ct)
	}
	sorted, _, err := wire.ReadBlock(resp.Body, wire.KindReply, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkSortedKeys(t, sorted, keys)

	// No Accept: the JSON default is unchanged.
	resp2, out := postSort(t, ts.URL, keys)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("JSON default broken: status %d ct %q", resp2.StatusCode, resp2.Header.Get("Content-Type"))
	}
	checkSortedKeys(t, out.Sorted, keys)
}

// TestWireHostileBodies: malformed binary requests are 400s, an
// over-limit promised N is a 413 — rejected from the 32-byte header,
// before any payload allocation.
func TestWireHostileBodies(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxKeys: 1 << 12})

	good := wire.AppendBlock(nil, wire.KindRequest, []int64{3, 1, 2})

	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'

	truncated := good[:len(good)-5]

	ledger := append([]byte(nil), good...)
	ledger[len(ledger)-1] ^= 0xFF // corrupt a key byte; header sum/xor no longer match

	wrongKind := wire.AppendBlock(nil, wire.KindReply, []int64{3, 1, 2})

	// A header promising 2^20 keys with no payload behind it: the limit
	// check must fire on the count alone.
	absurd := append([]byte(nil), good[:wire.HeaderLen]...)
	binary.LittleEndian.PutUint64(absurd[8:], 1<<20)

	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"bad-magic", badMagic, http.StatusBadRequest},
		{"truncated", truncated, http.StatusBadRequest},
		{"ledger-mismatch", ledger, http.StatusBadRequest},
		{"wrong-kind", wrongKind, http.StatusBadRequest},
		{"empty", nil, http.StatusBadRequest},
		{"over-limit", absurd, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/sort", wire.ContentType, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	if s.tooLarge.Load() == 0 {
		t.Fatal("over-limit wire request did not bump the tooLarge counter")
	}
}

// TestWireMixedCodecTraffic interleaves JSON and binary clients on one
// server: negotiation is per-request state, so concurrent codecs must
// never bleed into each other's replies.
func TestWireMixedCodecTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	var wg sync.WaitGroup
	fails := make([]string, 8)
	for g := range fails {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 6; i++ {
				keys := randKeys(rng, 500+rng.Intn(2000))
				var sorted []int64
				if g%2 == 0 {
					resp, got, _ := postWire(t, ts.URL, "/sort", keys)
					if resp.StatusCode != http.StatusOK {
						fails[g] = fmt.Sprintf("binary status %d", resp.StatusCode)
						return
					}
					sorted = got
				} else {
					resp, out := postSort(t, ts.URL, keys)
					if resp.StatusCode != http.StatusOK {
						fails[g] = fmt.Sprintf("json status %d", resp.StatusCode)
						return
					}
					sorted = out.Sorted
				}
				want := append([]int64(nil), keys...)
				sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
				if len(sorted) != len(want) {
					fails[g] = fmt.Sprintf("iter %d: %d keys back, sent %d", i, len(sorted), len(want))
					return
				}
				for j := range sorted {
					if sorted[j] != want[j] {
						fails[g] = fmt.Sprintf("iter %d key %d: got %d want %d", i, j, sorted[j], want[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, f := range fails {
		if f != "" {
			t.Fatalf("client %d: %s", g, f)
		}
	}
}
