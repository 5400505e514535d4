package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
)

// tinyParams sizes a workload for the self-test: same code paths as a
// real run, inputs small enough for a fraction of a second.
func tinyParams(t *testing.T, seed uint64) params {
	return params{seed: seed, tiny: true, spillDir: t.TempDir(), log: io.Discard}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []def                        `json:"end_to_end"`
		PerLayer  []def                        `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != w.Bound) {
				bound := "none"
				if g.Bound != nil {
					bound = fmt.Sprint(*g.Bound)
				}
				t.Errorf("%s %d: BENCHMARK.json has %s %s %s bound %s, catalogue has %+v", kind, i, g.Name, g.Unit, g.Better, bound, w)
			}
			if !bounded && w.Moves == "" {
				t.Errorf("%s: %s records no predicted end-to-end target", kind, w.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// inputBytes renders every generator's output for one seed.
func inputBytes(seed uint64) []byte {
	var buf bytes.Buffer
	r := newRand(seed, 1)
	for shape := 0; shape < numShapes; shape++ {
		recs := make([]rec, 5000)
		genRecords(r, recs, shape)
		binary.Write(&buf, binary.LittleEndian, recs)
	}
	keys := make([]int64, 5000)
	genKeys(r, keys)
	binary.Write(&buf, binary.LittleEndian, keys)
	src := &keySource{r: newRand(seed, 2), left: 3000}
	chunk := make([]int64, 1024)
	for {
		n, err := src.ReadKeys(chunk)
		binary.Write(&buf, binary.LittleEndian, chunk[:n])
		if err != nil {
			break
		}
	}
	return buf.Bytes()
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b := inputBytes(7), inputBytes(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if bytes.Equal(a, inputBytes(8)) {
		t.Fatal("different seeds generated identical inputs")
	}
}

func TestKeySourceLedger(t *testing.T) {
	src := &keySource{r: newRand(3, 0), left: 2500}
	var got []int64
	buf := make([]int64, 1000)
	for {
		n, err := src.ReadKeys(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			break
		}
	}
	want := make([]int64, 2500)
	genKeys(newRand(3, 0), want)
	if !bytes.Equal(int64Bytes(got), int64Bytes(want)) || src.in != ledgerOf(want) {
		t.Fatal("the streamed source differs from its in-memory replay")
	}
}

func int64Bytes(ks []int64) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, ks)
	return buf.Bytes()
}

func TestCovered(t *testing.T) {
	ivs := [][2]int64{{5, 15}, {10, 20}, {30, 40}, {95, 120}}
	if got := covered(0, 100, ivs); got != 15+10+5 {
		t.Fatalf("covered = %d, want 30", got)
	}
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, tinyParams(t, 1), 0.3, false, "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, def := range endToEnd {
				m, ok := res.Metrics[def.Name]
				if !ok || m.Unit != def.Unit || !(m.Value > 0) {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", def.Name, m, ok, def.Unit)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("untraced run printed %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}

			spans := t.TempDir() + "/spans.json"
			res, err = runWorkload(w, tinyParams(t, 1), 0.6, true, spans)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run: attempted=%d failed=%d", res.Attempted, res.Failed)
			}
			for _, def := range perLayer {
				if m, ok := res.Metrics[def.Name]; !ok || m.Unit != def.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", def.Name, m, ok, def.Unit)
				}
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run printed %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			if _, err := os.Stat(spans); err != nil {
				t.Errorf("traced run wrote no spans: %v", err)
			}
		})
	}
}

func TestCorruptTargetRaisesFailures(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p := tinyParams(t, 2)
			p.corrupt = true
			res, err := runWorkload(w, p, 0.2, false, "")
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("a target that flips one key went unnoticed: attempted=%d failed=%d", res.Attempted, res.Failed)
			}
		})
	}
}
