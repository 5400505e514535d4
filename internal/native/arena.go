package native

import (
	"strings"

	"wfsort/internal/model"
)

// hotPrefix decides how many leading words of a named region deserve
// their own cache line. The rules follow the kernel's region names:
//
//   - work-assignment trees ("wat.*") are 1-indexed heaps whose top
//     levels carry the Θ(P) root traffic of every claim; the top 64
//     nodes (six levels) get their own lines.
//   - the rank table ("place") is indexed by element id; slots 0
//     (unused) and 1 are padded, the bulk stays dense.
func hotPrefix(name string, n int) int {
	hot := 0
	switch {
	case strings.Contains(name, "wat"):
		hot = 64
	case strings.Contains(name, "place"):
		hot = 2
	}
	if hot > n {
		hot = n
	}
	return hot
}

// Arena is a hardware-aware model.Allocator: it hands out the same
// logical structures as model.Arena but aligns every named structure
// to a cache-line boundary and gives contention hot spots a padded
// prefix, so each hot word owns its line. Dense bulk arrays stay dense,
// so the cache footprint grows by only O(hot words). Build the program
// against an Arena, then size the runtime with Size — exactly the
// model.Arena workflow. The simulator never uses it: internal/pram
// always runs on the dense model.Arena, so simulated step counts and
// contention are layout-independent by construction.
type Arena struct {
	next  int
	named []model.NamedRegion
}

var _ model.Allocator = (*Arena)(nil)

// NewArena returns an empty padded arena.
func NewArena() *Arena { return &Arena{} }

// Array reserves n contiguous words and returns the region.
func (a *Arena) Array(n int) Region {
	if n < 0 {
		panic("native: negative array size")
	}
	r := Region{Base: a.next, Len: n}
	a.next += n
	return r
}

// Named reserves n words under a label, aligned to a cache line, with
// the label's hot prefix padded.
func (a *Arena) Named(name string, n int) Region {
	if n < 0 {
		panic("native: negative array size")
	}
	r := Region{Base: a.next, Len: n}
	if rem := a.next % model.LineWords; rem != 0 {
		r.Base = a.next + model.LineWords - rem
	}
	r.Hot = hotPrefix(name, n)
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
