package wfsort

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"wfsort/internal/pram"
)

func TestSortInts(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 10, 100, 1000, 10000} {
		data := make([]int, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range data {
			data[i] = rng.Intn(1000)
		}
		want := make([]int, n)
		copy(want, data)
		sort.Ints(want)
		if err := Sort(data); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range want {
			if data[i] != want[i] {
				t.Fatalf("n=%d: data[%d] = %d, want %d", n, i, data[i], want[i])
			}
		}
	}
}

func TestSortStrings(t *testing.T) {
	data := []string{"pear", "apple", "fig", "banana", "apple", ""}
	if err := Sort(data); err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(data) {
		t.Errorf("not sorted: %v", data)
	}
}

func TestSortFloats(t *testing.T) {
	data := []float64{3.2, -1, 0, 99.5, -7.25, 0}
	if err := Sort(data); err != nil {
		t.Fatal(err)
	}
	if !sort.Float64sAreSorted(data) {
		t.Errorf("not sorted: %v", data)
	}
}

func TestSortFuncIsStable(t *testing.T) {
	type pair struct{ key, tag int }
	const n = 500
	data := make([]pair, n)
	rng := rand.New(rand.NewSource(1))
	for i := range data {
		data[i] = pair{key: rng.Intn(10), tag: i}
	}
	if err := SortFunc(data, func(a, b pair) bool { return a.key < b.key }); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if data[i-1].key > data[i].key {
			t.Fatalf("not sorted at %d", i)
		}
		if data[i-1].key == data[i].key && data[i-1].tag > data[i].tag {
			t.Fatalf("stability violated at %d: tags %d, %d", i, data[i-1].tag, data[i].tag)
		}
	}
}

func TestSortAllVariants(t *testing.T) {
	for _, v := range []Variant{Deterministic, Randomized, LowContention} {
		data := make([]int, 2000)
		rng := rand.New(rand.NewSource(int64(v)))
		for i := range data {
			data[i] = rng.Intn(5000)
		}
		if err := Sort(data, WithVariant(v), WithWorkers(8), WithSeed(42)); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !sort.IntsAreSorted(data) {
			t.Errorf("%v: not sorted", v)
		}
	}
}

func TestSortSortedInputAllVariants(t *testing.T) {
	// Pre-sorted input is the adversarial case for the deterministic
	// pivot tree; all variants must still be correct.
	for _, v := range []Variant{Deterministic, Randomized, LowContention} {
		data := make([]int, 1500)
		for i := range data {
			data[i] = i
		}
		if err := Sort(data, WithVariant(v), WithWorkers(6)); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !sort.IntsAreSorted(data) {
			t.Errorf("%v: not sorted", v)
		}
	}
}

func TestSortWorkerCounts(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 32, 1000, 100000} {
		data := make([]int, 300)
		rng := rand.New(rand.NewSource(int64(p)))
		for i := range data {
			data[i] = rng.Intn(100)
		}
		if err := Sort(data, WithWorkers(p)); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !sort.IntsAreSorted(data) {
			t.Errorf("p=%d: not sorted", p)
		}
	}
}

func TestSortRejectsBadWorkers(t *testing.T) {
	if err := Sort([]int{3, 1, 2}, WithWorkers(0)); err == nil {
		t.Error("workers=0 accepted")
	}
	if err := Sort([]int{3, 1, 2}, WithWorkers(-5)); err == nil {
		t.Error("negative workers accepted")
	}
}

func TestSortUnknownVariant(t *testing.T) {
	if err := Sort([]int{3, 1, 2}, WithVariant(Variant(99))); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestSortQuickProperty(t *testing.T) {
	f := func(data []int16, workers uint8) bool {
		d := make([]int, len(data))
		for i, v := range data {
			d[i] = int(v)
		}
		p := int(workers)%16 + 1
		if err := Sort(d, WithWorkers(p)); err != nil {
			return false
		}
		return sort.IntsAreSorted(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateMetrics(t *testing.T) {
	keys := []int{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	res, err := Simulate(keys, WithWorkers(4), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Steps == 0 || res.Metrics.Ops == 0 {
		t.Error("metrics empty")
	}
	if res.TreeDepth < 1 {
		t.Errorf("tree depth %d", res.TreeDepth)
	}
	// keys are 0..9 shuffled: element i's rank is keys[i-1]+1.
	for i, r := range res.Ranks {
		if r != keys[i]+1 {
			t.Errorf("element %d rank %d, want %d", i+1, r, keys[i]+1)
		}
	}
}

func TestSimulateEmpty(t *testing.T) {
	res, err := Simulate(nil)
	if err != nil || len(res.Ranks) != 0 {
		t.Fatalf("empty input: %v %v", res, err)
	}
}

func TestSimulateWithCrashes(t *testing.T) {
	keys := make([]int, 64)
	rng := rand.New(rand.NewSource(3))
	for i := range keys {
		keys[i] = rng.Intn(500)
	}
	crashes := pram.RandomCrashes(16, 0.5, 100, 11)
	kept := crashes[:0]
	for _, c := range crashes {
		if c.PID != 0 {
			kept = append(kept, c)
		}
	}
	res, err := Simulate(keys,
		WithWorkers(16),
		WithVariant(LowContention),
		WithSchedule(pram.WithCrashes(pram.Synchronous(), kept)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Killed == 0 {
		t.Error("no processors were killed")
	}
	// Ranks must still be the true ranks.
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	for pos, i := range idx {
		if res.Ranks[i] != pos+1 {
			t.Fatalf("element %d rank %d, want %d", i+1, res.Ranks[i], pos+1)
		}
	}
}

func TestSimulateLowContentionBeatsDeterministic(t *testing.T) {
	keys := make([]int, 256)
	rng := rand.New(rand.NewSource(5))
	for i := range keys {
		keys[i] = rng.Intn(1000)
	}
	det, err := Simulate(keys, WithWorkers(256), WithVariant(Deterministic))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := Simulate(keys, WithWorkers(256), WithVariant(LowContention))
	if err != nil {
		t.Fatal(err)
	}
	if lc.Metrics.MaxContention*4 > det.Metrics.MaxContention {
		t.Errorf("lowcontention %d vs deterministic %d: expected a clear gap",
			lc.Metrics.MaxContention, det.Metrics.MaxContention)
	}
}

func TestVariantString(t *testing.T) {
	if Deterministic.String() != "deterministic" || LowContention.String() != "lowcontention" {
		t.Error("variant names wrong")
	}
}

func TestSortLargeInputs(t *testing.T) {
	for _, n := range []int{1 << 15, 1<<15 + 7} {
		data := make([]int, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range data {
			data[i] = rng.Intn(1 << 20)
		}
		if err := Sort(data, WithWorkers(4)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !sort.IntsAreSorted(data) {
			t.Fatalf("n=%d: not sorted", n)
		}
	}
}

// TestSortLayoutsProperty is the cross-layout property test: for every
// native arena layout × algorithm variant × input shape, SortFunc must
// produce exactly what sort.SliceStable produces. Records carry unique
// tags, so element-wise equality simultaneously proves sortedness,
// stability and that the output is a permutation of the input.
func TestSortLayoutsProperty(t *testing.T) {
	type rec struct{ key, tag int }
	const n = 2500
	inputs := map[string]func(i int, rng *rand.Rand) int{
		"random":   func(_ int, rng *rand.Rand) int { return rng.Intn(n) },
		"dupheavy": func(_ int, rng *rand.Rand) int { return rng.Intn(7) },
		"sorted":   func(i int, _ *rand.Rand) int { return i },
		"reverse":  func(i int, _ *rand.Rand) int { return n - i },
	}
	for _, layout := range Layouts() {
		for _, v := range []Variant{Deterministic, Randomized, LowContention} {
			for name, gen := range inputs {
				t.Run(layout.String()+"/"+v.String()+"/"+name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(v)<<8 + int64(layout)))
					data := make([]rec, n)
					for i := range data {
						data[i] = rec{key: gen(i, rng), tag: i}
					}
					want := make([]rec, n)
					copy(want, data)
					sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
					err := SortFunc(data, func(a, b rec) bool { return a.key < b.key },
						WithLayout(layout), WithVariant(v), WithWorkers(6), WithSeed(uint64(layout)+1))
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if data[i] != want[i] {
							t.Fatalf("position %d: got %+v, want %+v", i, data[i], want[i])
						}
					}
				})
			}
		}
	}
}

// TestSortDegenerateInputsAllLayouts pins the edge cases the pivot
// tree and scatter paths can mishandle — empty, singleton, pair and
// all-equal inputs — on every layout × variant, against the
// sort.SliceStable reference. Unique tags make element-wise equality
// prove stability too (an all-equal input is the pure stability test:
// the "sorted" output must be the input, untouched).
func TestSortDegenerateInputsAllLayouts(t *testing.T) {
	type rec struct{ key, tag int }
	inputs := map[string][]int{
		"empty":     {},
		"single":    {7},
		"pair":      {9, 2},
		"pairequal": {4, 4},
		"allequal":  {5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
	}
	for _, layout := range Layouts() {
		for _, v := range []Variant{Deterministic, Randomized, LowContention} {
			for name, keys := range inputs {
				t.Run(layout.String()+"/"+v.String()+"/"+name, func(t *testing.T) {
					data := make([]rec, len(keys))
					for i, k := range keys {
						data[i] = rec{key: k, tag: i}
					}
					want := make([]rec, len(data))
					copy(want, data)
					sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
					err := SortFunc(data, func(a, b rec) bool { return a.key < b.key },
						WithLayout(layout), WithVariant(v), WithWorkers(4))
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if data[i] != want[i] {
							t.Fatalf("position %d: got %+v, want %+v", i, data[i], want[i])
						}
					}
				})
			}
		}
	}
}

func TestSortPreservesMultisets(t *testing.T) {
	// The output must be a permutation of the input, not just sorted —
	// catches any lost or duplicated element in the scatter.
	const n = 40_000
	data := make([]int, n)
	rng := rand.New(rand.NewSource(9))
	before := map[int]int{}
	for i := range data {
		data[i] = rng.Intn(50) // heavy duplication
		before[data[i]]++
	}
	if err := Sort(data, WithWorkers(6), WithVariant(LowContention)); err != nil {
		t.Fatal(err)
	}
	after := map[int]int{}
	for _, v := range data {
		after[v]++
	}
	for k, c := range before {
		if after[k] != c {
			t.Fatalf("value %d: count %d before, %d after", k, c, after[k])
		}
	}
	if !sort.IntsAreSorted(data) {
		t.Fatal("not sorted")
	}
}
