// Package layout builds every sort the repository runs, so the sort
// cmd/chaos certifies is the sort wfsort runs. Native code runs one
// sort, the block-leaf kernel on a cache-line padded arena (Native).
// The paper's graphs, the §2 pivot tree and the §3 low-contention sort,
// run only in the simulator, on its dense arena (Sim), where their step
// counts and contention are measured exactly.
package layout

import (
	"fmt"

	"wfsort/internal/core"
	"wfsort/internal/lowcont"
	"wfsort/internal/model"
	"wfsort/internal/native"
)

// Variant selects the paper's algorithm in the simulator. The values
// match wfsort.Variant.
type Variant int

// Algorithm variants.
const (
	Deterministic Variant = iota
	Randomized
	LowContention
)

// Native lays out the block-leaf kernel for n >= 1 elements and
// workers goroutines on a padded arena, and returns both.
func Native(n, workers int) (*core.Kernel, *native.Arena) {
	a := native.NewArena()
	return core.NewKernel(a, n, workers), a
}

// SimRunner is one of the paper's graphs laid out in the simulator's
// arena, with the host-side readers its callers use after a run.
type SimRunner interface {
	// Seed writes the initial state into zeroed memory.
	Seed(mem []model.Word)
	// Program returns the per-processor sort program.
	Program() model.Program
	// Places returns every element's 1-based rank after a run.
	Places(mem []model.Word) []int
	// Depth returns the depth of the pivot tree the run built.
	Depth(mem []model.Word) int
}

// Sim lays out variant v's graph for n >= 1 elements and workers
// simulated processors on a dense model.Arena, and returns both.
// Deterministic and Randomized run the §2 pivot tree with the matching
// work allocation. LowContention runs the §3 sort; it needs 4 workers
// and n >= workers, and below that runs Randomized.
func Sim(v Variant, n, workers int) (SimRunner, *model.Arena) {
	a := &model.Arena{}
	switch v {
	case Deterministic:
		return core.NewSorter(a, n, core.AllocWAT), a
	case LowContention:
		if workers >= 4 && n >= workers {
			return lowcont.New(a, n, workers), a
		}
		// Below the §3 regime the deterministic contention bound O(P)
		// is small anyway.
		fallthrough
	case Randomized:
		return core.NewSorter(a, n, core.AllocRandomized), a
	}
	panic(fmt.Sprintf("layout: unknown variant %d", int(v)))
}
