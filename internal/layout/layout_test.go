package layout

import (
	"testing"

	"wfsort/internal/core"
	"wfsort/internal/lowcont"
	"wfsort/internal/model"
	"wfsort/internal/native"
)

// TestNewMapping pins the layout × variant → sort table: the kernel on
// the sharded layout for both §2 variants, the pivot tree on padded and
// flat, the §3 sort wherever its regime holds, and the arenas.
func TestNewMapping(t *testing.T) {
	for _, c := range []struct {
		l       Layout
		v       Variant
		n, p    int
		kind    string
		padded  bool
		wantErr bool
	}{
		{Sharded, Deterministic, 1000, 4, "kernel", true, false},
		{Sharded, Randomized, 1000, 4, "kernel", true, false},
		{Padded, Randomized, 1000, 4, "pivot", true, false},
		{Flat, Deterministic, 1000, 4, "pivot", false, false},
		{Sharded, LowContention, 1000, 4, "lowcont", true, false},
		{Flat, LowContention, 1000, 4, "lowcont", false, false},
		{Sharded, LowContention, 1000, 2, "kernel", true, false}, // below the §3 regime
		{Flat, LowContention, 3, 4, "pivot", false, false},       // n < P
		{Layout(7), Randomized, 10, 2, "", false, true},
		{Sharded, Variant(9), 10, 2, "", false, true},
	} {
		r, a, err := New(c.l, c.v, c.n, c.p)
		if c.wantErr {
			if err == nil {
				t.Errorf("%v/%d: accepted", c.l, c.v)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v/%d: %v", c.l, c.v, err)
		}
		var kind string
		switch r.(type) {
		case *core.Kernel:
			kind = "kernel"
		case *core.Sorter:
			kind = "pivot"
		case *lowcont.Sorter:
			kind = "lowcont"
		}
		na, padded := a.(*native.Arena)
		padded = padded && na.Layout() == native.Padded
		if _, dense := a.(*model.Arena); kind != c.kind || padded != c.padded || (!padded && !dense) {
			t.Errorf("%v/%d n=%d p=%d: got %s on %T, want %s (padded %v)", c.l, c.v, c.n, c.p, kind, a, c.kind, c.padded)
		}
	}
}
