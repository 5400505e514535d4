package loadgen

import (
	"context"
	"errors"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func capBase() *Spec {
	return &Spec{
		Seed: 5, HorizonMs: 120,
		Classes: []ClassSpec{{
			Name:    "c",
			Arrival: ArrivalSpec{Dist: DistDet, Rate: 100},
			Size:    SizeSpec{Dist: SizeFixed, N: 8},
		}},
	}
}

// rateSensitiveTarget models a server with a capacity cliff: a fixed
// base service time while concurrency stays under a threshold, a
// large penalty beyond it — which is what open-loop overload does to
// a real server. Under Little's law, in-flight ≈ rate × 5ms, so the
// cliff sits near rate = threshold/5ms.
type rateSensitiveTarget struct {
	inflight  atomic.Int64
	threshold int64
}

func (t *rateSensitiveTarget) Sort(ctx context.Context, class string, keys []int64) ([]int64, int, error) {
	n := t.inflight.Add(1)
	defer t.inflight.Add(-1)
	if n > t.threshold {
		time.Sleep(50 * time.Millisecond)
	} else {
		time.Sleep(5 * time.Millisecond)
	}
	out := append([]int64(nil), keys...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out, http.StatusOK, nil
}

func TestSweepFindsKnee(t *testing.T) {
	cfg := CapacityConfig{
		Base:  capBase(),
		Rates: []float64{100, 200, 400, 800, 1600, 3200, 6400, 12800},
		SLOMs: 20,
		NewTarget: func() (Target, func(), error) {
			return &rateSensitiveTarget{threshold: 16}, func() {}, nil
		},
	}
	rep, err := SweepCapacity(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KneeRPS == 0 {
		t.Fatalf("no knee found: %+v", rep.Points)
	}
	if rep.KneeRPS >= 12800 {
		t.Fatal("the cliff target should fail before the top rate")
	}
	// The sweep stops at the first rate that failed 2 of its 3 runs,
	// and every earlier rate passed: at most one failed run, outvoted
	// by its two reruns.
	last := rep.Points[len(rep.Points)-1].OfferedRPS
	fails := map[float64]int{}
	for _, p := range rep.Points {
		if !p.Pass {
			fails[p.OfferedRPS]++
		}
	}
	for rate, n := range fails {
		if rate != last && n > 1 {
			t.Fatalf("rate %v failed %d runs but the sweep went on: %+v", rate, n, rep.Points)
		}
	}
	if fails[last] < 2 {
		t.Fatalf("sweep should have ended on a rate that failed 2 of 3 runs: %+v", rep.Points)
	}
}

// TestSweepOutvotesOneFailedRun fails the first run at one rate only:
// the sweep must rerun that rate on fresh targets, keep every run in
// Points, and go on past it.
func TestSweepOutvotesOneFailedRun(t *testing.T) {
	targets := 0
	cfg := CapacityConfig{
		Base:  capBase(),
		Rates: []float64{100, 200, 400},
		SLOMs: 20,
		NewTarget: func() (Target, func(), error) {
			targets++
			if targets == 2 { // the first run at 200 req/s
				return FuncTarget(func(context.Context, string, []int64) ([]int64, int, error) {
					return nil, 0, errors.New("flaky")
				}), func() {}, nil
			}
			return &rateSensitiveTarget{threshold: 1 << 20}, func() {}, nil
		},
	}
	rep, err := SweepCapacity(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, p := range rep.Points {
		got = append(got, p.OfferedRPS)
	}
	if want := []float64{100, 200, 200, 200, 400}; !slices.Equal(got, want) {
		t.Fatalf("runs at %v, want %v: %+v", got, want, rep.Points)
	}
	if rep.Points[1].Pass || !rep.Points[2].Pass || !rep.Points[3].Pass {
		t.Fatalf("want only the first run at 200 req/s failed: %+v", rep.Points)
	}
	if rep.KneeRPS != 400 {
		t.Fatalf("knee %v, want 400: one failed run ended the sweep", rep.KneeRPS)
	}
}

func TestFindKneeRefines(t *testing.T) {
	rep, err := FindKnee(context.Background(), KneeConfig{
		CapacityConfig: CapacityConfig{
			Base:  capBase(),
			SLOMs: 20,
			NewTarget: func() (Target, func(), error) {
				return &rateSensitiveTarget{threshold: 16}, func() {}, nil
			},
		},
		Start:  100,
		Max:    25600,
		Refine: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.KneeRPS == 0 {
		t.Fatal("refined search found no knee")
	}
	// The refinement stage evaluated off-ladder rates strictly inside
	// the coarse bracket (unless the knee sat exactly on the ladder's
	// last passing point and refinement's first probe failed — even
	// then at least one off-ladder point exists).
	offLadder := 0
	for _, p := range rep.Points {
		onLadder := false
		for r := 100.0; r <= 25600; r *= 2 {
			if p.OfferedRPS == r {
				onLadder = true
			}
		}
		if !onLadder {
			offLadder++
			if !(p.OfferedRPS > rep.Points[0].OfferedRPS) {
				t.Fatalf("refined point %v below the bracket", p.OfferedRPS)
			}
		}
	}
	if offLadder == 0 {
		t.Fatalf("no refined points evaluated: %+v", rep.Points)
	}
}

func TestJudgePointFailureReasons(t *testing.T) {
	cfg := CapacityConfig{SLOMs: 10, MaxShedFrac: 0.05}
	mk := func(mut func(*ClassReport)) *Report {
		tot := ClassReport{Requests: 100, OK: 100, P99Ms: 5, AchievedRPS: 100}
		mut(&tot)
		return &Report{Totals: tot, Classes: []ClassReport{tot}}
	}
	cases := []struct {
		name string
		rep  *Report
		pass bool
		why  string
	}{
		{"pass", mk(func(*ClassReport) {}), true, ""},
		{"unsorted", mk(func(c *ClassReport) { c.Unsorted = 1 }), false, "unsorted"},
		{"errors", mk(func(c *ClassReport) { c.Errors = 2 }), false, "errors"},
		{"slo", mk(func(c *ClassReport) { c.P99Ms = 50 }), false, "p99"},
		{"shed", mk(func(c *ClassReport) { c.Shed = 20; c.Requests = 120 }), false, "shed"},
		{"starved", mk(func(c *ClassReport) { c.OK = 0; c.Requests = 0 }), false, "no completions"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pt := judgePoint(100, tc.rep, cfg)
			if pt.Pass != tc.pass {
				t.Fatalf("pass = %v (why %q), want %v", pt.Pass, pt.Why, tc.pass)
			}
			if !strings.Contains(pt.Why, tc.why) {
				t.Fatalf("why %q does not mention %q", pt.Why, tc.why)
			}
		})
	}
}

func TestJudgePointClassSLO(t *testing.T) {
	cfg := CapacityConfig{SLOMs: 100, MaxShedFrac: 0.05}
	tot := ClassReport{Requests: 10, OK: 10, P99Ms: 5}
	slow := ClassReport{Name: "gold", Requests: 5, OK: 5, P99Ms: 8, SLOMs: 2}
	pt := judgePoint(50, &Report{Totals: tot, Classes: []ClassReport{slow}}, cfg)
	if pt.Pass || !strings.Contains(pt.Why, "gold") {
		t.Fatalf("per-class SLO breach not caught: pass=%v why=%q", pt.Pass, pt.Why)
	}
}
