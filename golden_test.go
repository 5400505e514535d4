package wfsort_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"testing"

	"wfsort"
)

// TestGoldenDeterminism verifies the simulator's end-to-end
// determinism: two runs with equal seed, input and configuration must
// agree on every metric and every rank. It also logs the exact costs,
// so CI diffs surface behavioural changes that slip past the bounds
// checks.
func TestGoldenDeterminism(t *testing.T) {
	keys := make([]int, 128)
	// A fixed linear-congruential input, independent of any library RNG.
	x := uint32(12345)
	for i := range keys {
		x = x*1664525 + 1013904223
		keys[i] = int(x % 1000)
	}

	cases := []struct {
		variant wfsort.Variant
		workers int
	}{
		{wfsort.Deterministic, 128},
		{wfsort.Randomized, 128},
		{wfsort.LowContention, 128},
		{wfsort.Deterministic, 8},
	}
	// Two runs per case must agree exactly — the golden property is
	// run-to-run determinism. The values are logged so intentional
	// changes can be eyeballed in CI diffs.
	for ci, c := range cases {
		first, err := wfsort.Simulate(keys,
			wfsort.WithWorkers(c.workers), wfsort.WithVariant(c.variant), wfsort.WithSeed(7))
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		second, err := wfsort.Simulate(keys,
			wfsort.WithWorkers(c.workers), wfsort.WithVariant(c.variant), wfsort.WithSeed(7))
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if first.Metrics.Steps != second.Metrics.Steps ||
			first.Metrics.Ops != second.Metrics.Ops ||
			first.Metrics.MaxContention != second.Metrics.MaxContention ||
			first.TreeDepth != second.TreeDepth {
			t.Errorf("case %d: same seed diverged: %v vs %v", ci, first.Metrics, second.Metrics)
		}
		for i := range first.Ranks {
			if first.Ranks[i] != second.Ranks[i] {
				t.Fatalf("case %d: ranks diverged at %d", ci, i)
			}
		}
		t.Logf("variant=%v workers=%d: steps=%d ops=%d maxcont=%d depth=%d",
			c.variant, c.workers, first.Metrics.Steps, first.Metrics.Ops,
			first.Metrics.MaxContention, first.TreeDepth)
	}
}

// TestSeedChangesExecution makes sure the seed actually matters for the
// randomized variants (a constant-stream RNG regression would silently
// void every w.h.p. claim).
func TestSeedChangesExecution(t *testing.T) {
	keys := make([]int, 200)
	for i := range keys {
		keys[i] = (i * 37) % 199
	}
	a, err := wfsort.Simulate(keys, wfsort.WithWorkers(50),
		wfsort.WithVariant(wfsort.Randomized), wfsort.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := wfsort.Simulate(keys, wfsort.WithWorkers(50),
		wfsort.WithVariant(wfsort.Randomized), wfsort.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.Ops == b.Metrics.Ops && a.TreeDepth == b.TreeDepth {
		t.Error("different seeds produced identical executions — RNG plumbing broken?")
	}
	// Ranks must be identical regardless of seed: randomness affects
	// cost, never the answer.
	for i := range a.Ranks {
		if a.Ranks[i] != b.Ranks[i] {
			t.Fatalf("ranks differ across seeds at %d", i)
		}
	}
}

// goldenInputs enumerates the degenerate and adversarial input shapes
// every variant and the native sort must handle: empty, singleton, all-equal
// (one giant tie group), pre-sorted, reverse-sorted, and a fixed
// pseudo-random permutation. The generator is a hand-rolled LCG so the
// goldens cannot shift under a library RNG change.
func goldenInputs(n int) map[string][]int {
	if n == 0 {
		return map[string][]int{"empty": {}}
	}
	if n == 1 {
		return map[string][]int{"single": {42}}
	}
	random := make([]int, n)
	x := uint32(12345)
	for i := range random {
		x = x*1664525 + 1013904223
		random[i] = int(x % 1000)
	}
	equal := make([]int, n)
	for i := range equal {
		equal[i] = 7
	}
	sorted := make([]int, n)
	for i := range sorted {
		sorted[i] = i
	}
	reverse := make([]int, n)
	for i := range reverse {
		reverse[i] = n - i
	}
	return map[string][]int{
		"random": random, "equal": equal, "sorted": sorted, "reverse": reverse,
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens from current behavior")

// TestGoldenMatrix locks the simulator's exact behavior — every metric
// and every rank — across the Variant x input-shape x N matrix into a
// byte-identical golden file. Any intentional behavior change reruns
// with -update and reviews the diff; anything else is a regression.
func TestGoldenMatrix(t *testing.T) {
	variants := []struct {
		name string
		v    wfsort.Variant
	}{
		{"deterministic", wfsort.Deterministic},
		{"randomized", wfsort.Randomized},
		{"lowcontention", wfsort.LowContention},
	}
	var buf bytes.Buffer
	for _, n := range []int{0, 1, 16, 128} {
		inputs := goldenInputs(n)
		names := make([]string, 0, len(inputs))
		for name := range inputs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, v := range variants {
				res, err := wfsort.Simulate(inputs[name],
					wfsort.WithVariant(v.v), wfsort.WithWorkers(8), wfsort.WithSeed(7))
				if err != nil {
					t.Fatalf("%s/%s/n%d: %v", v.name, name, n, err)
				}
				h := fnv.New64a()
				for _, r := range res.Ranks {
					fmt.Fprintf(h, "%d,", r)
				}
				m := res.Metrics
				fmt.Fprintf(&buf,
					"v=%s in=%s n=%d steps=%d ops=%d reads=%d writes=%d cas=%d casfail=%d maxcont=%d stalls=%d depth=%d ranks=%016x\n",
					v.name, name, n, m.Steps, m.Ops, m.Reads, m.Writes, m.CASes,
					m.CASFailures, m.MaxContention, m.Stalls, res.TreeDepth, h.Sum64())
				checkRanks(t, inputs[name], res.Ranks)
			}
		}
	}

	const path = "testdata/golden_sim.txt"
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("simulator behavior diverged from %s.\ngot:\n%s\nwant:\n%s\n(rerun with -update only if the change is intentional)",
			path, buf.Bytes(), want)
	}
}

// checkRanks verifies ranks are a permutation of 1..n consistent with
// a stable sort of keys.
func checkRanks(t *testing.T, keys []int, ranks []int) {
	t.Helper()
	n := len(keys)
	if len(ranks) != n {
		t.Fatalf("got %d ranks for %d keys", len(ranks), n)
	}
	byRank := make([]int, n) // byRank[r-1] = element index i (0-based)
	seen := make([]bool, n)
	for i, r := range ranks {
		if r < 1 || r > n || seen[r-1] {
			t.Fatalf("bad rank %d for element %d", r, i)
		}
		seen[r-1] = true
		byRank[r-1] = i
	}
	for r := 1; r < n; r++ {
		a, b := byRank[r-1], byRank[r]
		if keys[a] > keys[b] || (keys[a] == keys[b] && a > b) {
			t.Fatalf("rank order broken at rank %d: keys[%d]=%d before keys[%d]=%d",
				r, a, keys[a], b, keys[b])
		}
	}
}

// TestNativeMatrix runs the native sort over the input-shape x N
// matrix and verifies sorted, stable output. The native runtime races
// real goroutines, so there is no golden — the invariants are the
// contract.
func TestNativeMatrix(t *testing.T) {
	type rec struct{ key, pos int }
	for _, n := range []int{0, 1, 16, 128} {
		for name, keys := range goldenInputs(n) {
			data := make([]rec, n)
			for i, k := range keys {
				data[i] = rec{key: k, pos: i}
			}
			err := wfsort.SortFunc(data, func(a, b rec) bool { return a.key < b.key }, wfsort.WithWorkers(4))
			if err != nil {
				t.Fatalf("%s/n%d: %v", name, n, err)
			}
			for i := 1; i < n; i++ {
				if data[i-1].key > data[i].key {
					t.Fatalf("%s/n%d: unsorted at %d", name, n, i)
				}
				if data[i-1].key == data[i].key && data[i-1].pos > data[i].pos {
					t.Fatalf("%s/n%d: unstable at %d", name, n, i)
				}
			}
		}
	}
}
