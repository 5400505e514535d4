package layout

import (
	"testing"

	"wfsort/internal/core"
	"wfsort/internal/lowcont"
)

// TestNewMapping pins the two constructors: Native always lays out the
// kernel on a padded arena, and Sim lays out the paper's graph for the
// variant, running LowContention as Randomized below the §3 regime.
func TestNewMapping(t *testing.T) {
	k, a := Native(1000, 4)
	if k == nil || a.Size() == 0 || len(a.Regions()) == 0 {
		t.Fatalf("Native: kernel %v on an arena of %d words", k, a.Size())
	}
	for _, c := range []struct {
		v    Variant
		n, p int
		kind string
	}{
		{Deterministic, 1000, 4, "pivot"},
		{Randomized, 1000, 4, "pivot"},
		{LowContention, 1000, 4, "lowcont"},
		{LowContention, 1000, 2, "pivot"}, // below the §3 regime
		{LowContention, 3, 4, "pivot"},    // n < P
	} {
		r, a := Sim(c.v, c.n, c.p)
		var kind string
		switch r.(type) {
		case *core.Sorter:
			kind = "pivot"
		case *lowcont.Sorter:
			kind = "lowcont"
		}
		if kind != c.kind || a.Size() == 0 {
			t.Errorf("Sim(%d) n=%d p=%d: got %s on %d words, want %s", c.v, c.n, c.p, kind, a.Size(), c.kind)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Sim accepted an unknown variant")
		}
	}()
	Sim(Variant(9), 10, 2)
}
