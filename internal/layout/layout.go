// Package layout is the one mapping from a native sort configuration —
// arena layout, algorithm variant, input size and worker count — to the
// sort laid out for it. The root package, the chaos certifier and the
// native-runtime CLIs all build their sorts here, so the sort cmd/chaos
// certifies on a layout is the sort wfsort runs on it.
package layout

import (
	"fmt"

	"wfsort/internal/core"
	"wfsort/internal/lowcont"
	"wfsort/internal/model"
	"wfsort/internal/native"
	"wfsort/internal/pool"
	"wfsort/internal/sizeclass"
)

// Layout selects a native sort's arena layout and, with it, the kernel
// that runs on the arena. The values match wfsort.Layout.
type Layout int

// Native layouts, default first.
const (
	// Sharded runs the block-leaf kernel (core.Kernel) on a padded arena.
	Sharded Layout = iota
	// Padded runs the paper's pivot-tree graph on a cache-line padded
	// arena.
	Padded
	// Flat runs the paper's pivot-tree graph on the simulator's dense
	// arena, as-is.
	Flat
)

// String returns the layout's mnemonic.
func (l Layout) String() string {
	switch l {
	case Sharded:
		return "sharded"
	case Padded:
		return "padded"
	case Flat:
		return "flat"
	default:
		return fmt.Sprintf("layout(%d)", int(l))
	}
}

// All lists every layout, default first.
func All() []Layout { return []Layout{Sharded, Padded, Flat} }

// Variant selects the algorithm. The values match wfsort.Variant.
type Variant int

// Algorithm variants.
const (
	Deterministic Variant = iota
	Randomized
	LowContention
)

// Runner is a sort laid out in its arena: the pool's runner contract
// plus the host-side readers the certifier and the CLIs use.
type Runner interface {
	pool.Runner
	// Places returns every element's 1-based rank after a run.
	Places(mem []model.Word) []int
	// Progress counts, on quiescent memory, the elements the first phase
	// has handled and the elements ranked; both equal N after a run.
	Progress(mem []model.Word) (first, placed int)
	// LiveProgress is Progress with atomic loads, for a run in flight.
	LiveProgress(mem []model.Word) (first, placed int)
}

// New lays out a sort of n >= 1 elements for workers goroutines and
// returns it with the arena it was laid out in.
//
// Deterministic and Randomized run the block-leaf kernel on Sharded,
// where the §2.3 allocation choice has nothing to choose, and the
// paper's pivot tree with the matching allocation on Padded and Flat.
// LowContention runs the §3 sort, claiming sizeclass.Batch elements per
// job on Sharded; it needs 4 workers and n >= workers, and below that
// runs Randomized.
func New(l Layout, v Variant, n, workers int) (Runner, model.Allocator, error) {
	var a model.Allocator
	switch l {
	case Sharded, Padded:
		a = native.NewArena(native.Padded)
	case Flat:
		a = &model.Arena{}
	default:
		return nil, nil, fmt.Errorf("unknown layout %v", l)
	}
	if v == LowContention && (workers < 4 || n < workers) {
		// Below the §3 regime the deterministic contention bound O(P)
		// is small anyway.
		v = Randomized
	}
	switch v {
	case Deterministic, Randomized:
		if l == Sharded {
			return core.NewKernel(a, n, workers), a, nil
		}
		alloc := core.AllocWAT
		if v == Randomized {
			alloc = core.AllocRandomized
		}
		return core.NewSorter(a, n, alloc), a, nil
	case LowContention:
		batch := 1
		if l == Sharded {
			batch = sizeclass.Batch(n, workers)
		}
		return lowcont.NewTuned(a, n, workers, batch), a, nil
	default:
		return nil, nil, fmt.Errorf("unknown variant %d", int(v))
	}
}
