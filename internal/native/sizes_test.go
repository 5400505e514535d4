package native

import (
	"strconv"
	"testing"
	"unsafe"
)

// TestHotPathSizes is a tripwire on the layout of the structs every
// pooled sort touches per job and per operation. Their sizes are not
// correctness, but field changes here have moved keyed-bulk by 3-8%
// with no change in work (CHANGES.md: the FOUND lines on teamJob, on
// config/Pool and on runJob's escaping proc), so a size change must be
// a decision, not an accident.
func TestHotPathSizes(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"native.teamJob", unsafe.Sizeof(teamJob{}), 176},
		{"native.TeamRun", unsafe.Sizeof(TeamRun{}), 48},
		{"native.proc", unsafe.Sizeof(proc{}), 40},
		{"native.runState", unsafe.Sizeof(runState{}), 120},
		{"native.Team", unsafe.Sizeof(Team{}), 208},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, pinned at %d. Layout changes on this path moved keyed-bulk "+
				"by 3-8%% at equal work (CHANGES.md FOUND lines on teamJob, config/Pool and runJob's proc): "+
				"run alternating keyed-bulk pairs (perfbench/run.sh --workload keyed-bulk) against the parent "+
				"before updating the pin", c.name, c.got, c.want)
		}
	}
}
