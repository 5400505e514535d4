package wfsort

import (
	"strconv"
	"testing"
	"unsafe"
)

// TestHotPathSizes is a tripwire on the layout of the structs every
// pooled sort reads: keyed-bulk speed has moved with config's and
// Pool's field offsets at equal work (CHANGES.md: the FOUND lines on
// config/Pool, on native's teamJob and on runJob's escaping proc), so
// a size change must be a decision, not an accident. The native
// structs are pinned in internal/native.
func TestHotPathSizes(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"wfsort.config", unsafe.Sizeof(config{}), 104},
		{"wfsort.Pool", unsafe.Sizeof(Pool{}), 168},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, pinned at %d. Layout changes on this path moved keyed-bulk "+
				"by 3-8%% at equal work (CHANGES.md FOUND lines on teamJob, config/Pool and runJob's proc): "+
				"run alternating keyed-bulk pairs (perfbench/run.sh --workload keyed-bulk) against the parent "+
				"before updating the pin", c.name, c.got, c.want)
		}
	}
}
