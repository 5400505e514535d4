package native

import (
	"strings"

	"wfsort/internal/model"
)

// Layout selects how a native Arena places logical words in physical
// memory. The simulator never uses these: internal/pram always runs on
// the dense model.Arena, so simulated step counts and contention are
// layout-independent by construction.
type Layout int

const (
	// Flat reproduces the simulator's dense layout word for word — the
	// seed behavior, kept as the benchmark-gate baseline.
	Flat Layout = iota
	// Padded aligns every named structure to a cache-line boundary and
	// gives contention hot spots (work-assignment-tree tops, tree roots)
	// a padded prefix so each hot word owns its line. False sharing
	// between a WAT root and its neighbours disappears; dense bulk arrays
	// stay dense so the cache footprint grows by only O(hot words).
	Padded
)

// String returns the layout's mnemonic.
func (l Layout) String() string {
	switch l {
	case Flat:
		return "flat"
	case Padded:
		return "padded"
	default:
		return "layout(?)"
	}
}

// hotPrefix decides how many leading words of a named region deserve
// their own cache line under the Padded layout. The rules are driven by
// the region-naming conventions already used for contention profiling:
//
//   - work-assignment trees ("wat.", "lcwat", "glue", "shuffle") and the
//     winner-selection tree are 1-indexed heaps whose top levels carry
//     the Θ(P) root traffic the paper's §3 is about; the top 64 nodes
//     (six levels) get their own lines.
//   - element tables ("key", "size", "place", "child.*", …) are indexed
//     by element id with id 1 the pivot-tree root, by far the hottest
//     element; slots 0 (unused) and 1 are padded, the bulk stays dense
//     because which other elements become hot is input-dependent.
func hotPrefix(name string, n int) int {
	hot := 0
	switch {
	case strings.Contains(name, "wat"),
		strings.HasSuffix(name, "glue"),
		strings.HasSuffix(name, "shuffle"),
		strings.HasSuffix(name, "winner"),
		strings.HasSuffix(name, "fat"):
		hot = 64
	case strings.Contains(name, "key"),
		strings.Contains(name, "size"),
		strings.Contains(name, "place"),
		strings.Contains(name, "child."),
		strings.Contains(name, "sumdone"):
		hot = 2
	}
	if hot > n {
		hot = n
	}
	return hot
}

// Arena is a hardware-aware model.Allocator: it hands out the same
// logical structures as model.Arena but may place them physically so
// that contended words do not share cache lines. Build the program
// against an Arena, then size the runtime with Size — exactly the
// model.Arena workflow.
type Arena struct {
	layout Layout
	next   int
	named  []model.NamedRegion
}

var _ model.Allocator = (*Arena)(nil)

// NewArena returns an arena using the given layout. NewArena(Flat)
// behaves exactly like a zero model.Arena.
func NewArena(layout Layout) *Arena {
	return &Arena{layout: layout}
}

// Layout returns the arena's layout policy.
func (a *Arena) Layout() Layout { return a.layout }

// Array reserves n contiguous words and returns the region.
func (a *Arena) Array(n int) Region {
	if n < 0 {
		panic("native: negative array size")
	}
	r := Region{Base: a.next, Len: n}
	a.next += n
	return r
}

// Named reserves n words under a label, applying the layout's alignment
// and hot-prefix rules.
func (a *Arena) Named(name string, n int) Region {
	if n < 0 {
		panic("native: negative array size")
	}
	r := Region{Base: a.next, Len: n}
	if a.layout == Padded {
		if rem := a.next % model.LineWords; rem != 0 {
			r.Base = a.next + model.LineWords - rem
		}
		r.Hot = hotPrefix(name, n)
	}
	a.next = r.Base + r.Extent()
	a.named = append(a.named, model.NamedRegion{Name: name, Region: r})
	return r
}

// Word reserves a single word and returns its address.
func (a *Arena) Word() int {
	addr := a.next
	a.next++
	return addr
}

// NamedWord reserves a single labelled word and returns its address.
func (a *Arena) NamedWord(name string) int {
	return a.Named(name, 1).Base
}

// Regions returns every labelled region, in allocation order. The
// returned slice is shared; callers must not modify it.
func (a *Arena) Regions() []model.NamedRegion { return a.named }

// Size returns the number of physical words reserved so far.
func (a *Arena) Size() int { return a.next }

// Region aliases the shared region type.
type Region = model.Region
