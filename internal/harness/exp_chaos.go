package harness

import (
	"fmt"

	"wfsort/internal/chaos"
	"wfsort/internal/layout"
)

// E20Chaos is the native fault-injection sweep: every adversary policy
// against every arena layout on the real-goroutine runtime (the sharded
// leg runs the block-leaf kernel, the others the pivot tree), certifying
// each run against the wait-freedom op ceiling, plus a cross-runtime
// differential (the same seeded crash schedule on the simulator and on
// every native layout must yield identical sorted output).
func E20Chaos(o Options) (*Table, error) {
	n, p := 4096, 8
	if o.Quick {
		n, p = 1024, 4
	}
	t := &Table{
		ID:    "E20",
		Title: fmt.Sprintf("chaos sweep on the native runtime (N=%d, P=%d)", n, p),
		Claim: "wait-freedom on real goroutines: under seeded kill/stall/respawn adversaries every layout sorts correctly and every processor stays under the certified op ceiling",
		Header: []string{
			"policy", "layout", "outcome", "killed", "respawns", "survivors", "max ops", "ceiling", "headroom",
		},
	}

	keys := MakeKeys(InputRandom, n, o.Seed)
	for _, pol := range chaos.Policies() {
		for _, l := range layout.All() {
			res, err := chaos.RunNative(chaos.BuildSpec(keys, p, l, o.Seed, pol))
			if err != nil {
				return nil, fmt.Errorf("policy %s layout %v: %w", pol.Name, l, err)
			}
			outcome := "certified"
			switch {
			case !res.Sorted:
				outcome = "WRONG OUTPUT"
			case !res.Certified:
				outcome = "OVER CEILING"
			}
			t.AddRow(pol.Name, res.Layout, outcome, res.Killed, res.Respawns,
				res.Survivors, res.MaxOps, res.Bound,
				fmtRatio(float64(res.Bound)/float64(res.MaxOps)))
		}
	}

	// Cross-runtime differential at the table's P.
	crashes := chaos.CrashQuorum(p, 0.5, int64(n), o.Seed+uint64(p))
	diff := "identical sorted output on pram and all native layouts"
	if err := chaos.Differential(keys, p, o.Seed, crashes); err != nil {
		diff = "MISMATCH: " + err.Error()
	}
	t.Notef("ceiling = paper O(N log N / P) bound at the wait-free worst case P=1, x measured constant; differential (%d crashes): %s", len(crashes), diff)
	return t, nil
}
