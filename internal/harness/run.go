package harness

import (
	"fmt"
	"sort"

	"wfsort/internal/core"
	"wfsort/internal/lowcont"
	"wfsort/internal/model"
	"wfsort/internal/pram"
	"wfsort/internal/xrand"
)

// InputKind selects an input arrangement for the sort experiments.
type InputKind int

// Input arrangements.
const (
	InputRandom InputKind = iota
	InputSorted
	InputReversed
	InputFewDistinct
)

// String returns the input kind's mnemonic.
func (k InputKind) String() string {
	switch k {
	case InputRandom:
		return "random"
	case InputSorted:
		return "sorted"
	case InputReversed:
		return "reversed"
	case InputFewDistinct:
		return "few-distinct"
	default:
		return fmt.Sprintf("input(%d)", int(k))
	}
}

// MakeKeys builds an input of the given kind and size.
func MakeKeys(kind InputKind, n int, seed uint64) []int {
	keys := make([]int, n)
	switch kind {
	case InputSorted:
		for i := range keys {
			keys[i] = i
		}
	case InputReversed:
		for i := range keys {
			keys[i] = n - i
		}
	case InputFewDistinct:
		rng := xrand.New(seed)
		for i := range keys {
			keys[i] = rng.Intn(8)
		}
	default:
		rng := xrand.New(seed)
		for i := range keys {
			keys[i] = rng.Intn(4 * n)
		}
	}
	return keys
}

// LessFor builds the strict total order over 1-based element ids for a
// key slice, ties broken by index (§2.2).
func LessFor(keys []int) func(i, j int) bool {
	return func(i, j int) bool {
		a, b := keys[i-1], keys[j-1]
		if a != b {
			return a < b
		}
		return i < j
	}
}

// WantRanks computes each element's expected 1-based rank host-side.
func WantRanks(keys []int) []int {
	n := len(keys)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i + 1
	}
	less := LessFor(keys)
	sort.Slice(ids, func(a, b int) bool { return less(ids[a], ids[b]) })
	ranks := make([]int, n)
	for pos, id := range ids {
		ranks[id-1] = pos + 1
	}
	return ranks
}

// SortResult is the outcome of one simulated sort run.
type SortResult struct {
	Metrics *model.Metrics
	// Correct reports whether every element received its true rank.
	Correct bool
	// Depth is the pivot tree's depth.
	Depth int
}

// RunCoreSort executes the Section 2 sort on the simulator and verifies
// the result.
func RunCoreSort(keys []int, p int, alloc core.Alloc, seed uint64, sched pram.Scheduler) (SortResult, error) {
	var a model.Arena
	s := core.NewSorter(&a, len(keys), alloc)
	m := pram.New(pram.Config{P: p, Mem: a.Size(), Seed: seed, Sched: sched, Less: LessFor(keys)})
	s.Seed(m.Memory())
	met, err := m.Run(s.Program())
	if err != nil {
		return SortResult{Metrics: met}, err
	}
	return SortResult{
		Metrics: met,
		Correct: ranksMatch(s.Places(m.Memory()), keys),
		Depth:   s.Depth(m.Memory()),
	}, nil
}

// RunLowContSort executes the Section 3 sort on the simulator and
// verifies the result.
func RunLowContSort(keys []int, p int, seed uint64, sched pram.Scheduler) (SortResult, error) {
	var a model.Arena
	s := lowcont.New(&a, len(keys), p)
	m := pram.New(pram.Config{P: p, Mem: a.Size(), Seed: seed, Sched: sched, Less: LessFor(keys)})
	s.Seed(m.Memory())
	met, err := m.Run(s.Program())
	if err != nil {
		return SortResult{Metrics: met}, err
	}
	return SortResult{
		Metrics: met,
		Correct: ranksMatch(s.Places(m.Memory()), keys),
		Depth:   s.Depth(m.Memory()),
	}, nil
}

func ranksMatch(got []int, keys []int) bool {
	want := WantRanks(keys)
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
