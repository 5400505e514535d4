package harness

import (
	"fmt"

	"wfsort/internal/chaos"
)

// E20Chaos is the native fault-injection sweep: every adversary policy
// against the native sort (the block-leaf kernel on a resident team),
// certifying each run against the wait-freedom op ceiling, plus a
// cross-runtime differential (the same seeded crash schedule on the
// simulator and on the native runtime must yield identical sorted
// output).
func E20Chaos(o Options) (*Table, error) {
	n, p := 4096, 8
	if o.Quick {
		n, p = 1024, 4
	}
	t := &Table{
		ID:    "E20",
		Title: fmt.Sprintf("chaos sweep on the native runtime (N=%d, P=%d)", n, p),
		Claim: "wait-freedom on real goroutines: under seeded kill/stall/respawn adversaries the sort is correct and every processor stays under the certified op ceiling",
		Header: []string{
			"policy", "outcome", "killed", "respawns", "survivors", "max ops", "ceiling", "headroom",
		},
	}

	keys := MakeKeys(InputRandom, n, o.Seed)
	for _, pol := range chaos.Policies() {
		res, err := chaos.RunNative(chaos.BuildSpec(keys, p, o.Seed, pol))
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", pol.Name, err)
		}
		outcome := "certified"
		switch {
		case !res.Sorted:
			outcome = "WRONG OUTPUT"
		case !res.Certified:
			outcome = "OVER CEILING"
		case res.Killed != res.Scheduled:
			outcome = fmt.Sprintf("%d OF %d KILLS LANDED", res.Killed, res.Scheduled)
		}
		t.AddRow(pol.Name, outcome, res.Killed, res.Respawns,
			res.Survivors, res.MaxOps, res.Bound,
			fmtRatio(float64(res.Bound)/float64(res.MaxOps)))
	}

	// Cross-runtime differential at the table's P, on the crash-half
	// schedule, whose kills all land.
	crashes := chaos.BuildSpec(keys, p, o.Seed, chaos.Policy{Frac: 0.5}).Crashes
	diff := "identical sorted output on pram and native"
	res, err := chaos.Differential(keys, p, o.Seed, crashes)
	if err != nil {
		diff = "MISMATCH: " + err.Error()
	}
	t.Notef("ceiling = paper O(N log N / P) bound at the wait-free worst case P=1, x measured constant; differential (%d of %d crashes landed): %s", res.Killed, len(crashes), diff)
	return t, nil
}
