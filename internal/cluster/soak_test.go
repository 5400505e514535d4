package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"wfsort"
	"wfsort/internal/loadgen"
	"wfsort/internal/server"
)

// TestClusterSoak is the cluster's endurance leg, run under -race by
// `make soak` and CI: open-loop load from internal/loadgen against the
// coordinator's full serving surface while (1) every backend's own
// fault plane churns workers inside each sort and (2) a chaos
// goroutine kills and revives whole backends, always keeping at least
// two of the three alive. Every 200 must verify (loadgen checks
// length, order and the sum/xor ledger); 429/503/504 are legitimate
// backpressure; and after the drain, the coordinator's per-backend
// accepted-shard counters are cross-checked against each backend
// server's own shard_ok ledger — the two sides of the certification
// seam must agree on how much work was accepted, up to the attempts
// that reached a backend and failed at the coordinator.
func TestClusterSoak(t *testing.T) {
	horizonMs, rate := 8_000.0, 60.0
	if testing.Short() {
		horizonMs, rate = 1_500.0, 40.0
	}

	// Three churning backends behind kill switches.
	const nBackends = 3
	servers := make([]*server.Server, nBackends)
	kills := make([]*KillSwitch, nBackends)
	fleet := make([]Transport, nBackends)
	for i := range fleet {
		srv, err := server.New(server.Config{
			Workers:     2,
			MaxInFlight: 32,
			TraceOff:    true,
			Options:     []wfsort.Option{wfsort.WithChurn(1), wfsort.WithSeed(uint64(100 + i))},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		servers[i] = srv
		kills[i] = &KillSwitch{T: &HandlerBackend{Handler: srv.Handler(), Label: fmt.Sprintf("b%d", i)}}
		fleet[i] = kills[i]
	}

	c, err := New(Config{
		Backends:   fleet,
		Policy:     &LeastLoaded{},
		ShardKeys:  2048,
		CoolDown:   50 * time.Millisecond,
		ProbeEvery: 100 * time.Millisecond,
		Backoff:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	handler, drain := NewHandler(c, HandlerConfig{MaxInFlight: 64, Timeout: 30 * time.Second})

	// Backend churn: one backend down at a time, killed and revived on
	// a jittered beat — at least two of three always alive.
	stopChurn := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		rng := rand.New(rand.NewSource(9))
		for i := 0; ; i++ {
			select {
			case <-stopChurn:
				return
			case <-time.After(time.Duration(50+rng.Intn(100)) * time.Millisecond):
			}
			victim := kills[i%nBackends]
			victim.Kill()
			select {
			case <-stopChurn:
				victim.Revive()
				return
			case <-time.After(time.Duration(30+rng.Intn(70)) * time.Millisecond):
			}
			victim.Revive()
		}
	}()

	// Open-loop load: multi-shard sorts (4x ShardKeys and up) plus a
	// duplicate-heavy small class, from loadgen's planned trace.
	spec := &loadgen.Spec{
		Seed:      77,
		HorizonMs: horizonMs,
		Classes: []loadgen.ClassSpec{
			{
				Name:    "default",
				Arrival: loadgen.ArrivalSpec{Dist: loadgen.DistPoisson, Rate: rate},
				Size:    loadgen.SizeSpec{Dist: loadgen.SizeUniform, Min: 4_000, Max: 12_000},
				Clients: 6,
			},
			{
				Name:     "small",
				Arrival:  loadgen.ArrivalSpec{Dist: loadgen.DistPoisson, Rate: rate / 2},
				Size:     loadgen.SizeSpec{Dist: loadgen.SizeUniform, Min: 100, Max: 3_000},
				KeySpace: 64, // heavy duplicates: the tie-spreading regime
				Clients:  4,
			},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	trace, err := loadgen.BuildTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := loadgen.Run(context.Background(), trace, &loadgen.HandlerTarget{Handler: handler})

	close(stopChurn)
	churnWG.Wait()

	var ok, shed, deadline, errs, unsorted int
	for _, r := range res.Results {
		switch r.Outcome {
		case loadgen.OutcomeOK:
			ok++
		case loadgen.OutcomeShed:
			shed++
		case loadgen.OutcomeDeadline:
			deadline++
		case loadgen.OutcomeUnsorted:
			unsorted++
		default:
			errs++
		}
	}
	t.Logf("soak: %d issued, %d ok, %d shed, %d deadline, %d error, %d unsorted",
		len(res.Results), ok, shed, deadline, errs, unsorted)
	if unsorted != 0 {
		t.Fatalf("%d responses failed client-side verification", unsorted)
	}
	if ok == 0 {
		t.Fatal("no request succeeded under churn")
	}
	st := c.Stats()
	if st.Redispatches == 0 {
		t.Error("churn produced no redispatches — the chaos leg did not bite")
	}
	if st.LedgerFailures != 0 {
		t.Fatalf("%d coordinator ledger failures", st.LedgerFailures)
	}

	// Drain before the cross-check so no shard is still in flight.
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Coordinator-vs-backend ledger cross-check. Every shard the
	// coordinator accepted was a backend /shard success, so each
	// backend's own shard_ok counter must be at least the coordinator's
	// accepted count for it. A backend may count more: an attempt that
	// reached it and then failed at the coordinator (ShardTimeout fired
	// after the backend finished the sort, or the reply was rejected)
	// is a shard error there, redispatched and accepted elsewhere, yet
	// may be a shard_ok here. A killed backend's refusals are shard
	// errors that never reached it. With zero failed sorts every
	// attempt is one or the other, so the excess is at most the shard
	// errors that reached the backend, and exactly zero when none did.
	st = c.Stats()
	for i, srv := range servers {
		coordOK := st.Backends[i].ShardsOK
		backendOK := srv.Stats().ShardOK
		reached := st.Backends[i].ShardErrors - kills[i].Refused()
		if backendOK < coordOK {
			t.Errorf("backend %d: server shard_ok=%d < coordinator accepted=%d — accepted work the backend never did",
				i, backendOK, coordOK)
		}
		if st.SortErrors == 0 && backendOK > coordOK+reached {
			t.Errorf("backend %d: server shard_ok=%d > coordinator accepted=%d + %d failed attempts that reached it, with no failed sorts",
				i, backendOK, coordOK, reached)
		}
		t.Logf("backend %d: coordinator accepted %d, server shard_ok %d, shard errors %d (refused %d), downs %d",
			i, coordOK, backendOK, st.Backends[i].ShardErrors, kills[i].Refused(), st.Backends[i].Downs)
	}
}
