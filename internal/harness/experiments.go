package harness

import "fmt"

// Options tunes experiment scale.
type Options struct {
	// Quick trims sweeps for CI; full runs are the published tables.
	Quick bool
	// Seed drives every random choice for exact reproducibility.
	Seed uint64
}

// Experiment is one reproducible table from EXPERIMENTS.md.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Table, error)
}

// All returns every experiment in publication order.
func All() []Experiment {
	return []Experiment{
		{"E1", "WAT next_element cost is O(log N)", E1NextElement},
		{"E2", "write-all completion time by strategy", E2WriteAll},
		{"E3", "build_tree work bound and correctness", E3BuildTree},
		{"E4", "phases 2-3 are O(N) work per processor", E4Phases23},
		{"E5", "sort time is O(N log N / P)", E5SortTime},
		{"E6", "contention: O(P) deterministic vs O(sqrt(P)) randomized", E6Contention},
		{"E7", "LC-WAT: O(log P) time, low contention", E7LCWAT},
		{"E8", "winner selection: O(log P) time and contention", E8Winner},
		{"E9", "write-most fills the fat tree w.h.p.", E9WriteMost},
		{"E10", "wait-freedom under crashes (vs baselines)", E10Failures},
		{"E11", "ours vs transformation-based wait-free sorting", E11VsSimulation},
		{"E12", "pivot-tree depth is O(log N) w.h.p.", E12TreeDepth},
		{"E13", "native goroutine runtime (real hardware)", E13Native},
		// Extensions beyond the paper's own claims: related results it
		// cites (E14, E15, E17) and its stated open question (E16).
		{"E14", "universal-construction baseline is quadratic", E14Universal},
		{"E15", "omnipotent adversary forces O(P) contention", E15Adversary},
		{"E16", "work inflation under asynchrony (paper's open question)", E16AsyncWork},
		{"E17", "QRQW-clock comparison", E17QRQW},
		{"E20", "chaos sweep: fault injection on the native runtime", E20Chaos},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: no experiment %q", id)
}

// sizes returns a geometric sweep capped for quick mode.
func sizes(o Options, full []int, quickMax int) []int {
	if !o.Quick {
		return full
	}
	var out []int
	for _, n := range full {
		if n <= quickMax {
			out = append(out, n)
		}
	}
	return out
}
