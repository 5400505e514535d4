package harness

import (
	"errors"
	"fmt"
	"math"

	"wfsort/internal/baseline"
	"wfsort/internal/chaos"
	"wfsort/internal/core"
	"wfsort/internal/model"
	"wfsort/internal/pram"
)

// E10Failures is the wait-freedom demonstration: crash a growing
// fraction of the processors at random times and record which
// algorithms still sort. The paper's algorithm (both variants) and the
// transformation-based robust network must finish; the barrier
// algorithms must hang.
func E10Failures(o Options) (*Table, error) {
	n, p := 256, 64
	if o.Quick {
		n, p = 128, 16
	}
	t := &Table{
		ID:    "E10",
		Title: "sorting under fail-stop crashes",
		Claim: "wait-freedom: the sort completes correctly despite any processor crashes; barrier algorithms do not",
		Header: []string{
			"killed %", "algorithm", "outcome", "steps", "step inflation",
		},
	}
	// Hang detection threshold: far above any faultless completion
	// (the barrier algorithms finish in well under 100k steps at these
	// sizes) but small enough that demonstrating six hangs stays cheap.
	maxSteps := int64(300_000)
	if o.Quick {
		maxSteps = 120_000
	}

	type algo struct {
		name string
		run  func(keys []int, sched pram.Scheduler) (steps int64, correct bool, err error)
	}
	algos := []algo{
		{"wf-sort (det)", func(keys []int, sched pram.Scheduler) (int64, bool, error) {
			res, err := RunCoreSort(keys, p, core.AllocWAT, o.Seed, sched)
			if err != nil {
				return 0, false, err
			}
			return res.Metrics.Steps, res.Correct, nil
		}},
		{"wf-sort (lowcont)", func(keys []int, sched pram.Scheduler) (int64, bool, error) {
			res, err := RunLowContSort(keys, p, o.Seed, sched)
			if err != nil {
				return 0, false, err
			}
			return res.Metrics.Steps, res.Correct, nil
		}},
		{"bitonic+write-all", func(keys []int, sched pram.Scheduler) (int64, bool, error) {
			var a model.Arena
			s := baseline.NewBitonicRobust(&a, n)
			m := pram.New(pram.Config{P: p, Mem: a.Size(), Seed: o.Seed, Sched: sched, Less: LessFor(keys), MaxSteps: maxSteps})
			s.Seed(m.Memory())
			met, err := m.Run(s.Program())
			if err != nil {
				return met.Steps, false, err
			}
			return met.Steps, orderMatches(s.Output(m.Memory()), keys), nil
		}},
		{"bitonic+barrier", func(keys []int, sched pram.Scheduler) (int64, bool, error) {
			var a model.Arena
			s := baseline.NewBitonicBarrier(&a, n, p)
			m := pram.New(pram.Config{P: p, Mem: a.Size(), Seed: o.Seed, Sched: sched, Less: LessFor(keys), MaxSteps: maxSteps})
			s.Seed(m.Memory())
			met, err := m.Run(s.Program())
			if err != nil {
				return met.Steps, false, err
			}
			return met.Steps, orderMatches(s.Output(m.Memory()), keys), nil
		}},
		{"quicksort+barrier", func(keys []int, sched pram.Scheduler) (int64, bool, error) {
			var a model.Arena
			s := baseline.NewBarrierQuicksort(&a, n, p)
			m := pram.New(pram.Config{P: p, Mem: a.Size(), Seed: o.Seed, Sched: sched, Less: LessFor(keys), MaxSteps: maxSteps})
			met, err := m.Run(s.Program())
			if err != nil {
				return met.Steps, false, err
			}
			return met.Steps, orderMatches(s.Output(m.Memory()), keys), nil
		}},
	}

	base := make(map[string]int64)
	for _, frac := range []float64{0, 0.25, 0.5, 0.9} {
		keys := MakeKeys(InputRandom, n, o.Seed+uint64(100*frac))
		for _, alg := range algos {
			var sched pram.Scheduler
			if frac > 0 {
				sched = pram.WithCrashes(pram.Synchronous(),
					chaos.CrashQuorum(p, frac, 500, o.Seed+uint64(1000*frac)))
			}
			steps, correct, err := alg.run(keys, sched)
			outcome := "sorted"
			switch {
			case errors.Is(err, pram.ErrMaxSteps):
				outcome = "HUNG (MaxSteps)"
			case err != nil:
				outcome = "error: " + err.Error()
			case !correct:
				outcome = "WRONG OUTPUT"
			}
			inflation := "-"
			if frac == 0 {
				base[alg.name] = steps
			} else if b := base[alg.name]; b > 0 && outcome == "sorted" {
				inflation = fmtRatio(float64(steps) / float64(b))
			}
			t.AddRow(fmtPct(frac), alg.name, outcome, steps, inflation)
		}
	}
	t.Notef("wait-free algorithms finish at every kill rate with modest step inflation (survivors absorb the dead processors' work); barrier algorithms hang at the first crash")
	return t, nil
}

// E11VsSimulation compares the paper's sort against the §1.1
// transformation baseline: wait-freedom via per-step certified
// write-all costs O(log^3 N) where the paper's algorithm costs
// O(log N).
func E11VsSimulation(o Options) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "ours vs bitonic+write-all simulation, P = N",
		Claim: "§1: transformation-based wait-free sorting costs O(log^3 N); the paper's algorithm O(log N)",
		Header: []string{
			"N=P", "wf-sort steps", "simulated steps", "ratio", "log2(N)^2",
		},
	}
	var xs, ratios []float64
	for _, n := range sizes(o, []int{64, 256, 1024, 4096}, 1024) {
		keys := MakeKeys(InputRandom, n, o.Seed+uint64(n))
		ours, err := RunCoreSort(keys, n, core.AllocWAT, o.Seed, nil)
		if err != nil {
			return nil, err
		}
		var a model.Arena
		s := baseline.NewBitonicRobust(&a, n)
		m := pram.New(pram.Config{P: n, Mem: a.Size(), Seed: o.Seed, Less: LessFor(keys)})
		s.Seed(m.Memory())
		met, err := m.Run(s.Program())
		if err != nil {
			return nil, err
		}
		ratio := float64(met.Steps) / float64(ours.Metrics.Steps)
		logN := math.Log2(float64(n))
		t.AddRow(n, ours.Metrics.Steps, met.Steps, ratio, logN*logN)
		xs = append(xs, float64(n))
		ratios = append(ratios, ratio)
	}
	t.Notef("the step ratio grows with N like the predicted log^2 N gap (%+.2f per doubling)", FitLogSlope(xs, ratios))
	return t, nil
}

func orderMatches(got []int, keys []int) bool {
	want := WantRanks(keys)
	if len(got) != len(keys) {
		return false
	}
	for pos, id := range got {
		if id < 1 || id > len(keys) || want[id-1] != pos+1 {
			return false
		}
	}
	return true
}

func fmtPct(f float64) string { return fmt.Sprintf("%.0f%%", 100*f) }

func fmtRatio(f float64) string { return fmt.Sprintf("%.2fx", f) }
