// Benchmarks regenerating the shape of every experiment in
// EXPERIMENTS.md, one Benchmark per table (E1–E17). Simulator-based
// benches report exact machine metrics (steps, max per-variable
// contention) through b.ReportMetric alongside wall time; the paper's
// claims are about those metrics, not about nanoseconds.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package wfsort_test

import (
	"math/rand"
	"sort"
	"testing"

	"wfsort"
	"wfsort/internal/baseline"
	"wfsort/internal/core"
	"wfsort/internal/lowcont"
	"wfsort/internal/model"
	"wfsort/internal/pram"
	"wfsort/internal/wat"
	"wfsort/internal/writeall"
	"wfsort/internal/xrand"
)

func benchKeys(n int, seed uint64) []int {
	rng := xrand.New(seed)
	keys := make([]int, n)
	for i := range keys {
		keys[i] = rng.Intn(4 * n)
	}
	return keys
}

func lessFor(keys []int) func(i, j int) bool {
	return func(i, j int) bool {
		a, b := keys[i-1], keys[j-1]
		if a != b {
			return a < b
		}
		return i < j
	}
}

// BenchmarkE1WATNextElement measures the worst-case next_element call
// on a 4096-leaf tree: climb out of the completed left half, descend
// the untouched right half (Lemma 2.1: O(log N) operations).
func BenchmarkE1WATNextElement(b *testing.B) {
	const n = 4096
	var ops int64
	for i := 0; i < b.N; i++ {
		var a model.Arena
		w := wat.New(&a, n)
		m := pram.New(pram.Config{P: 1, Mem: a.Size()})
		w.Seed(m.Memory())
		for j := 0; j < n/2-1; j++ {
			m.Memory()[w.NodeAddr(w.LeafNode(j))] = model.Done
		}
		for node := w.Leaves() - 1; node >= 1; node-- {
			if m.Memory()[w.NodeAddr(2*node)] == model.Done &&
				m.Memory()[w.NodeAddr(2*node+1)] == model.Done {
				m.Memory()[w.NodeAddr(node)] = model.Done
			}
		}
		met, err := m.Run(func(p model.Proc) {
			w.NextElement(p, w.LeafNode(n/2-1))
		})
		if err != nil {
			b.Fatal(err)
		}
		ops = met.Ops
	}
	b.ReportMetric(float64(ops), "simops/call")
}

// BenchmarkE2WriteAll runs write-all with P = N = 1024 per strategy
// (Lemma 2.3 / Lemma 3.1).
func BenchmarkE2WriteAll(b *testing.B) {
	for _, v := range []writeall.Variant{writeall.WAT, writeall.LCWAT, writeall.Static} {
		b.Run(v.String(), func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := writeall.Run(writeall.Config{Variant: v, N: 1024, P: 1024, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Complete {
					b.Fatal("incomplete")
				}
				steps = res.Metrics.Steps
			}
			b.ReportMetric(float64(steps), "simsteps")
		})
	}
}

// BenchmarkE3BuildTree measures phase 1 alone at P = N = 1024
// (Lemmas 2.4/2.5).
func BenchmarkE3BuildTree(b *testing.B) {
	keys := benchKeys(1024, 3)
	var steps int64
	for i := 0; i < b.N; i++ {
		var a model.Arena
		s := core.NewSorter(&a, 1024, core.AllocWAT)
		m := pram.New(pram.Config{P: 1024, Mem: a.Size(), Seed: uint64(i), Less: lessFor(keys)})
		s.Seed(m.Memory())
		met, err := m.Run(func(p model.Proc) { s.BuildPhase(p) })
		if err != nil {
			b.Fatal(err)
		}
		steps = met.Steps
	}
	b.ReportMetric(float64(steps), "simsteps")
}

// BenchmarkE4Phases23 measures the full sort so phases 2–3 are
// exercised with realistic trees (Lemma 2.6); phase ops are reported.
func BenchmarkE4Phases23(b *testing.B) {
	keys := benchKeys(1024, 4)
	var sum, place int64
	for i := 0; i < b.N; i++ {
		res, err := wfsort.Simulate(keys, wfsort.WithWorkers(1024),
			wfsort.WithVariant(wfsort.Deterministic), wfsort.WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		sum = res.Metrics.ByPhase["2:sum"].Ops
		place = res.Metrics.ByPhase["3:place"].Ops
	}
	b.ReportMetric(float64(sum), "sumops")
	b.ReportMetric(float64(place), "placeops")
}

// BenchmarkE5SortSteps measures the full deterministic sort at P = N
// for the step-count claim of Lemmas 2.7/2.8.
func BenchmarkE5SortSteps(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(sizeName(n), func(b *testing.B) {
			keys := benchKeys(n, uint64(n))
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := wfsort.Simulate(keys, wfsort.WithWorkers(n),
					wfsort.WithVariant(wfsort.Deterministic), wfsort.WithSeed(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Metrics.Steps
			}
			b.ReportMetric(float64(steps), "simsteps")
		})
	}
}

// BenchmarkE6Contention measures max per-variable contention of both
// variants at P = N = 1024 — the §3 headline.
func BenchmarkE6Contention(b *testing.B) {
	keys := benchKeys(1024, 6)
	for _, v := range []wfsort.Variant{wfsort.Deterministic, wfsort.LowContention} {
		b.Run(v.String(), func(b *testing.B) {
			var cont int
			for i := 0; i < b.N; i++ {
				res, err := wfsort.Simulate(keys, wfsort.WithWorkers(1024),
					wfsort.WithVariant(v), wfsort.WithSeed(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				cont = res.Metrics.MaxContention
			}
			b.ReportMetric(float64(cont), "maxcontention")
		})
	}
}

// BenchmarkE7LCWAT isolates the LC-WAT (Lemma 3.1) at P = N = 4096.
func BenchmarkE7LCWAT(b *testing.B) {
	var steps int64
	var cont int
	for i := 0; i < b.N; i++ {
		res, err := writeall.Run(writeall.Config{Variant: writeall.LCWAT, N: 4096, P: 4096, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		steps, cont = res.Metrics.Steps, res.Metrics.MaxContention
	}
	b.ReportMetric(float64(steps), "simsteps")
	b.ReportMetric(float64(cont), "maxcontention")
}

// BenchmarkE8Winner and BenchmarkE9WriteMost run the low-contention
// sort at P = N = 1024 and report the phase-B and phase-C metrics
// (Lemma 3.2 and the §3.2 write-most fill).
func BenchmarkE8Winner(b *testing.B) {
	benchLowcontPhase(b, "B:winner")
}

// BenchmarkE9WriteMost reports the fat-tree fill phase (§3.2).
func BenchmarkE9WriteMost(b *testing.B) {
	benchLowcontPhase(b, "C:fill")
}

func benchLowcontPhase(b *testing.B, phase string) {
	keys := benchKeys(1024, 8)
	var steps int64
	var cont int
	for i := 0; i < b.N; i++ {
		res, err := wfsort.Simulate(keys, wfsort.WithWorkers(1024),
			wfsort.WithVariant(wfsort.LowContention), wfsort.WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		pm := res.Metrics.ByPhase[phase]
		if pm == nil {
			b.Fatalf("phase %q missing", phase)
		}
		steps, cont = pm.Steps, pm.MaxContention
	}
	b.ReportMetric(float64(steps), "phasesteps")
	b.ReportMetric(float64(cont), "phasemaxcont")
}

// BenchmarkE10Failures sorts with half the processors crashing — the
// wait-freedom demonstration.
func BenchmarkE10Failures(b *testing.B) {
	keys := benchKeys(512, 10)
	var steps int64
	for i := 0; i < b.N; i++ {
		crashes := pram.RandomCrashes(64, 0.5, 300, uint64(i))
		kept := crashes[:0]
		for _, c := range crashes {
			if c.PID != 0 {
				kept = append(kept, c)
			}
		}
		res, err := wfsort.Simulate(keys, wfsort.WithWorkers(64), wfsort.WithSeed(uint64(i)),
			wfsort.WithSchedule(pram.WithCrashes(pram.Synchronous(), kept)))
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Metrics.Steps
	}
	b.ReportMetric(float64(steps), "simsteps")
}

// BenchmarkE11VsSimulation runs the §1.1 transformation baseline
// (bitonic + per-round certified write-all) at P = N = 1024 so its
// step count can be compared with BenchmarkE5SortSteps/n1024.
func BenchmarkE11VsSimulation(b *testing.B) {
	keys := benchKeys(1024, 11)
	var steps int64
	for i := 0; i < b.N; i++ {
		var a model.Arena
		s := baseline.NewBitonicRobust(&a, 1024)
		m := pram.New(pram.Config{P: 1024, Mem: a.Size(), Seed: uint64(i), Less: lessFor(keys)})
		s.Seed(m.Memory())
		met, err := m.Run(s.Program())
		if err != nil {
			b.Fatal(err)
		}
		steps = met.Steps
	}
	b.ReportMetric(float64(steps), "simsteps")
}

// BenchmarkE12TreeDepth builds the pivot tree from sorted input with
// randomized allocation (§2.3) and reports the resulting depth.
func BenchmarkE12TreeDepth(b *testing.B) {
	n := 1024
	keys := make([]int, n)
	for i := range keys {
		keys[i] = i
	}
	var depth int
	for i := 0; i < b.N; i++ {
		res, err := wfsort.Simulate(keys, wfsort.WithWorkers(n),
			wfsort.WithVariant(wfsort.Randomized), wfsort.WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		depth = res.TreeDepth
	}
	b.ReportMetric(float64(depth), "treedepth")
}

// BenchmarkE13Native measures the real-goroutine sort against the
// standard library at several worker counts.
func BenchmarkE13Native(b *testing.B) {
	const n = 100_000
	base := benchKeys(n, 13)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(sizeName(workers)+"workers", func(b *testing.B) {
			data := make([]int, n)
			for i := 0; i < b.N; i++ {
				copy(data, base)
				if err := wfsort.Sort(data, wfsort.WithWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
			if !sort.IntsAreSorted(data) {
				b.Fatal("not sorted")
			}
		})
	}
	b.Run("stdlib", func(b *testing.B) {
		data := make([]int, n)
		for i := 0; i < b.N; i++ {
			copy(data, base)
			sort.Ints(data)
		}
	})
}

// BenchmarkE14Universal runs the Herlihy-style universal-construction
// sorting object at P = N = 128 (Θ(N²) serialization, §1.1).
func BenchmarkE14Universal(b *testing.B) {
	keys := benchKeys(128, 14)
	var steps int64
	for i := 0; i < b.N; i++ {
		var a model.Arena
		u := baseline.NewUniversal(&a, 128, 128)
		m := pram.New(pram.Config{P: 128, Mem: a.Size(), Seed: uint64(i), Less: lessFor(keys)})
		met, err := m.Run(u.Program())
		if err != nil {
			b.Fatal(err)
		}
		steps = met.Steps
	}
	b.ReportMetric(float64(steps), "simsteps")
}

// BenchmarkE15Adversary runs the §3 sort against the algorithm-aware
// HoldAddress adversary at P = N = 256; contention must reach P.
func BenchmarkE15Adversary(b *testing.B) {
	keys := benchKeys(256, 15)
	var cont int
	for i := 0; i < b.N; i++ {
		var a model.Arena
		s := lowcont.New(&a, 256, 256)
		m := pram.New(pram.Config{
			P: 256, Mem: a.Size(), Seed: uint64(i), Less: lessFor(keys),
			Sched: pram.HoldAddress(s.WinnerRootAddr()),
		})
		s.Seed(m.Memory())
		met, err := m.Run(s.Program())
		if err != nil {
			b.Fatal(err)
		}
		cont = met.MaxContention
	}
	b.ReportMetric(float64(cont), "maxcontention")
}

// BenchmarkE16AsyncWork measures total work under a serialized
// schedule (the paper's §4 open question) at N=512, P=64.
func BenchmarkE16AsyncWork(b *testing.B) {
	keys := benchKeys(512, 16)
	var ops int64
	for i := 0; i < b.N; i++ {
		res, err := wfsort.Simulate(keys, wfsort.WithWorkers(64),
			wfsort.WithVariant(wfsort.Deterministic), wfsort.WithSeed(uint64(i)),
			wfsort.WithSchedule(pram.RoundRobin(1)))
		if err != nil {
			b.Fatal(err)
		}
		ops = res.Metrics.Ops
	}
	b.ReportMetric(float64(ops), "simops")
}

// BenchmarkE17QRQW reports both variants' QRQW-clock time at
// P = N = 1024 (the contention-charging cost model of [22]).
func BenchmarkE17QRQW(b *testing.B) {
	keys := benchKeys(1024, 17)
	for _, v := range []wfsort.Variant{wfsort.Deterministic, wfsort.LowContention} {
		b.Run(v.String(), func(b *testing.B) {
			var qrqw int64
			for i := 0; i < b.N; i++ {
				res, err := wfsort.Simulate(keys, wfsort.WithWorkers(1024),
					wfsort.WithVariant(v), wfsort.WithSeed(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				qrqw = res.Metrics.QRQWTime
			}
			b.ReportMetric(float64(qrqw), "qrqwtime")
		})
	}
}

// BenchmarkNativeObserved measures the cost of the wait-free
// observability plane on the native sort: "off" is the
// nil-observer baseline (one pointer compare per op), "on" installs a
// full Observer (event rings, phase spans, snapshots). The observer
// cells of cmd/benchgate gate the on/off cost ratio so the hook can
// never silently grow a real hot-path cost.
//
//	go test -bench 'NativeObserved' -benchmem .
func BenchmarkNativeObserved(b *testing.B) {
	const n = 262_144
	const p = 8
	base := benchKeys(n, 19)
	for _, observed := range []bool{false, true} {
		name := "off"
		if observed {
			name = "on"
		}
		b.Run(name+"/p"+itoa(p)+"/"+sizeName(n), func(b *testing.B) {
			data := make([]int, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(data, base)
				opts := []wfsort.Option{wfsort.WithWorkers(p)}
				if observed {
					opts = append(opts, wfsort.WithObserver(wfsort.NewObserver()))
				}
				if err := wfsort.Sort(data, opts...); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if !sort.IntsAreSorted(data) {
				b.Fatal("not sorted")
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
		})
	}
}

// BenchmarkNativeSortSizes tracks the native sort's wall-time scaling
// with input size at GOMAXPROCS workers.
func BenchmarkNativeSortSizes(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		b.Run(sizeName(n), func(b *testing.B) {
			base := rand.New(rand.NewSource(int64(n))).Perm(n)
			data := make([]int, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(data, base)
				if err := wfsort.Sort(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return itoa(n/1_000_000) + "M"
	case n >= 1_000 && n%1_000 == 0:
		return itoa(n/1_000) + "k"
	default:
		return "n" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
