package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// ratio is a result whose subject costs ratio times its floor.
func ratio(name string, ratio float64) Result {
	return Result{Name: name, Unit: "s", Subject: ratio, Floor: 1, Ratio: ratio, Rounds: 3}
}

// perSec is a result measured as rates: the costs are their inverses.
func perSec(name string, subject, floor float64) Result {
	return Result{Name: name, Unit: "s", Subject: 1 / subject, Floor: 1 / floor, Ratio: floor / subject, Rounds: 3}
}

// The names of the cells the gate cases below are judged on.
const (
	kernelCell = "kernel/p8/n262144"
	sortLarge  = "wire/sort/n131072"
	shardLarge = "wire/shard/n131072"
)

// wireAt is the large /sort and /shard cells with the binary codec at
// sortBin and shardBin req/s against JSON's 100.
func wireAt(sortBin, shardBin float64) []Result {
	return []Result{perSec(sortLarge, sortBin, 100), perSec(shardLarge, shardBin, 100)}
}

// A gateCase is one gate of the full table judged on hand-made current
// and baseline results.
type gateCase struct {
	name      string
	gate      string
	cur, base []Result
	pass      bool
	why       []string // what the verdict must name
}

// checkGates judges every case at the default tolerance, one subtest
// each.
func checkGates(t *testing.T, cases []gateCase) {
	t.Helper()
	_, gates := table(io.Discard, false)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			i := slices.IndexFunc(gates, func(g gate) bool { return g.name == c.gate })
			if i < 0 {
				t.Fatalf("no gate %q", c.gate)
			}
			g := evaluate(gates[i:i+1], c.cur, c.base, 0.10)[0]
			if g.Pass != c.pass {
				t.Fatalf("pass = %v, want %v: %+v", g.Pass, c.pass, g)
			}
			for _, s := range c.why {
				if !strings.Contains(g.Why, s) {
					t.Errorf("verdict %q does not name %q", g.Why, s)
				}
			}
		})
	}
}

// TestCompareAbsoluteGate: the absolute elems/s gate is gone; its
// host-independent form is the kernel drift gate, which holds a 5% dip
// on both sides and fails, naming the cell, when the kernel loses 20%
// with its floor unchanged.
func TestCompareAbsoluteGate(t *testing.T) {
	checkGates(t, []gateCase{
		{"kernel ratio held", "kernel drift", []Result{perSec(kernelCell, 950, 1900)}, []Result{perSec(kernelCell, 1000, 2000)}, true, nil},
		{"kernel 20% behind", "kernel drift", []Result{perSec(kernelCell, 800, 2000)}, []Result{perSec(kernelCell, 1000, 2000)}, false, []string{"worst cell " + kernelCell}},
	})
}

// TestCompareRatioGateIsHostIndependent: a host twice as slow leaves
// the kernel/slices.Sort ratio, and so the verdict, where it was.
func TestCompareRatioGateIsHostIndependent(t *testing.T) {
	checkGates(t, []gateCase{
		{"slower host, ratio held", "kernel drift", []Result{perSec(kernelCell, 400, 800)}, []Result{perSec(kernelCell, 1000, 2000)}, true, nil},
		{"slower host, kernel fell behind", "kernel drift", []Result{perSec(kernelCell, 300, 800)}, []Result{perSec(kernelCell, 1000, 2000)}, false, []string{"worst cell " + kernelCell}},
	})
}

// TestCompareObserverOverheadGate: the observer's cost is an in-run
// contract and needs no baseline.
func TestCompareObserverOverheadGate(t *testing.T) {
	checkGates(t, []gateCase{
		{"observer costs 5%", "observer overhead", []Result{perSec("observer/p8/n262144", 950, 1000)}, nil, true, nil},
		{"observer costs 25%", "observer overhead", []Result{perSec("observer/p8/n262144", 750, 1000)}, nil, false, []string{"worst cell observer/p8/n262144"}},
		{"no cells", "observer overhead", nil, nil, false, []string{"no cell matches observer/*/*"}},
	})
}

// TestCompareSkipsUnknownCells: a drift gate no longer skips a cell
// the baseline lacks. It fails and names the cell, so a renamed or
// resized cell cannot slip past its gate.
func TestCompareSkipsUnknownCells(t *testing.T) {
	checkGates(t, []gateCase{
		{"cell missing from the baseline", "kernel drift", []Result{perSec("kernel/p4/n65536", 1, 2000)}, []Result{perSec(kernelCell, 1000, 2000)}, false, []string{"no baseline for kernel/p4/n65536"}},
		{"no baseline at all", "kernel drift", []Result{perSec(kernelCell, 1000, 2000)}, nil, false, []string{"no baseline"}},
	})
}

// TestCompareQoSGates: the QoS scheduler against FIFO. A bound itself
// still passes, and a ratio of 0, from a FIFO side that completed
// nothing, fails as unmeasurable rather than passing.
func TestCompareQoSGates(t *testing.T) {
	checkGates(t, []gateCase{
		{"lat p99 halved", "qos latency", []Result{ratio("qos/lat-p99", 0.5)}, nil, true, nil},
		{"lat p99 at the bound", "qos latency", []Result{ratio("qos/lat-p99", qosLatP99Max)}, nil, true, nil},
		{"no latency win", "qos latency", []Result{ratio("qos/lat-p99", 0.95)}, nil, false, []string{"over the bound"}},
		{"bulk kept up", "qos bulk", []Result{ratio("qos/bulk-ok", 1)}, nil, true, nil},
		{"bulk at the bound", "qos bulk", []Result{ratio("qos/bulk-ok", 1/qosBulkOKMin)}, nil, true, nil},
		{"bulk starved", "qos bulk", []Result{ratio("qos/bulk-ok", 2)}, nil, false, []string{"over the bound"}},
		{"FIFO completed no lat", "qos latency", []Result{ratio("qos/lat-p99", 0)}, nil, false, []string{"unmeasurable"}},
		{"FIFO completed no bulk", "qos bulk", []Result{ratio("qos/bulk-ok", 0)}, nil, false, []string{"unmeasurable"}},
	})
}

// TestCompareWireSpeedupFloor: the binary codec's in-run floor holds
// each large cell on its own and names every cell that falls below.
func TestCompareWireSpeedupFloor(t *testing.T) {
	checkGates(t, []gateCase{
		{"binary 1.8x", "wire speedup", wireAt(180, 180), nil, true, nil},
		{"binary exactly at the floor", "wire speedup", []Result{ratio(sortLarge, 1/wireMinSpeedup), perSec(shardLarge, 180, 100)}, nil, true, nil},
		{"binary 1.10x on /sort", "wire speedup", wireAt(110, 180), nil, false, []string{sortLarge}},
		{"binary below on both", "wire speedup", wireAt(110, 105), nil, false, []string{sortLarge, shardLarge}},
	})
}

// TestCompareWireBaselineGates: against the baseline only the
// binary/JSON ratio is gated. Both codecs 20% slower is a slower host
// and passes (the absolute req/s gate is gone); the ratio collapsing
// from 2x to 1.4x fails the drift gate though it clears the floor.
func TestCompareWireBaselineGates(t *testing.T) {
	checkGates(t, []gateCase{
		{"binary/JSON ratio held", "wire drift", wireAt(200, 200), wireAt(200, 200), true, nil},
		{"everything 20% slower", "wire drift", []Result{perSec(sortLarge, 160, 80), perSec(shardLarge, 160, 80)}, wireAt(200, 200), true, nil},
		{"binary/JSON collapsed to 1.4x", "wire drift", wireAt(140, 140), wireAt(200, 200), false, []string{"worst cell"}},
		{"1.4x still clears the floor", "wire speedup", wireAt(140, 140), wireAt(200, 200), true, nil},
	})
}

// TestCompareWireSkipsUnknownCells: a run at sizes the baseline lacks
// is no longer judged by the in-run floor alone. The drift gate fails
// on the unrecorded cell, and the floor fails for want of a large one.
func TestCompareWireSkipsUnknownCells(t *testing.T) {
	checkGates(t, []gateCase{
		{"sizes the baseline lacks", "wire drift", []Result{ratio("wire/sort/n16384", 0.5)}, wireAt(200, 200), false, []string{"no baseline for wire/sort/n16384"}},
		{"no large cell", "wire speedup", []Result{ratio("wire/sort/n16384", 0.5)}, nil, false, []string{"no cell matches wire/*/n131072"}},
	})
}

// TestGates judges the gates the tests above leave out: the server's
// trace overhead, pooling, crash-half drift and the cluster's scaling.
func TestGates(t *testing.T) {
	checkGates(t, []gateCase{
		{"tracing costs 4%", "trace overhead", []Result{perSec("trace/n64", 96, 100), perSec("trace/n4096", 96, 100)}, nil, true, nil},
		{"tracing costs 20%", "trace overhead", []Result{perSec("trace/n64", 80, 100), perSec("trace/n4096", 80, 100)}, nil, false, nil},
		{"pooling pays", "pooled/fresh", []Result{ratio("pooled/p1/n4096", 0.95), ratio("pooled/p4/n4096", 0.98)}, nil, true, nil},
		{"pooling does not pay", "pooled/fresh", []Result{ratio("pooled/p1/n4096", 1.05), ratio("pooled/p4/n4096", 0.98)}, nil, false, nil},
		{"pooled ratio held", "pooled drift", []Result{ratio("pooled/p1/n4096", 0.80)}, []Result{ratio("pooled/p1/n4096", 0.78)}, true, nil},
		{"pooled 30% dearer", "pooled drift", []Result{ratio("pooled/p1/n4096", 1.0)}, []Result{ratio("pooled/p1/n4096", 0.78)}, false, []string{"worst cell pooled/p1/n4096"}},
		{"crash-half held", "crash-half drift", []Result{ratio("crashhalf", 1.16)}, []Result{ratio("crashhalf", 1.10)}, true, nil},
		{"crash-half 30% dearer", "crash-half drift", []Result{ratio("crashhalf", 1.43)}, []Result{ratio("crashhalf", 1.10)}, false, nil},
		{"three backends 3.1x", "cluster scaling", []Result{perSec("cluster/b3", 12.3, 3.9)}, nil, true, nil},
		{"three backends 1.5x", "cluster scaling", []Result{perSec("cluster/b3", 6, 4)}, nil, false, nil},
	})
}

// roundTrip writes a report of cells with the full table's verdicts on
// them, checks that it reads back unchanged and returns what was read.
func roundTrip(t *testing.T, cells ...Result) *Report {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_gate.json")
	_, gates := table(io.Discard, false)
	in := &Report{Host: hostFingerprint(), Cells: cells, Gates: evaluate(gates, cells, cells, 0.10)}
	if err := writeReport(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Host != in.Host || !slices.Equal(out.Cells, in.Cells) || !slices.Equal(out.Gates, in.Gates) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
	return out
}

// verdict returns the named gate's verdict in rep.
func verdict(t *testing.T, rep *Report, name string) GateResult {
	t.Helper()
	i := slices.IndexFunc(rep.Gates, func(g GateResult) bool { return g.Name == name })
	if i < 0 {
		t.Fatalf("report has no gate %q", name)
	}
	return rep.Gates[i]
}

func TestReportRoundTrip(t *testing.T) {
	roundTrip(t, perSec(kernelCell, 123456.5, 234567.5))
	if _, err := readReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("a missing baseline must be an error")
	}
}

// TestQoSReportRoundTrip: the QoS cell's results, in their own units,
// ride in the one report, and a FIFO side that completed no bulk
// request comes back as the failing verdict it was.
func TestQoSReportRoundTrip(t *testing.T) {
	rep := roundTrip(t,
		Result{Name: "qos/lat-p99", Unit: "ms", Subject: 32, Floor: 80, Ratio: 0.4, Rounds: 1},
		Result{Name: "qos/bulk-ok", Unit: "ms/ok", Subject: 2.5, Floor: 0, Ratio: 0, Rounds: 1},
		Result{Name: "qos/lat-ok", Unit: "ms/ok", Subject: 1.25, Floor: 1, Ratio: 1.25, Rounds: 1})
	if g := verdict(t, rep, "qos latency"); !g.Pass || g.Value != 0.4 {
		t.Fatalf("qos latency read back as %+v", g)
	}
	if g := verdict(t, rep, "qos bulk"); g.Pass || !strings.Contains(g.Why, "unmeasurable ratio in qos/bulk-ok") {
		t.Fatalf("qos bulk read back as %+v", g)
	}
}

// TestWireReportRoundTrip: the wire cells of both endpoints and sizes
// ride in the one report with the binary codec's floor verdict.
func TestWireReportRoundTrip(t *testing.T) {
	cells := append(wireAt(200, 190), perSec("wire/sort/n16384", 900, 600), perSec("wire/shard/n16384", 800, 600))
	rep := roundTrip(t, cells...)
	if g := verdict(t, rep, "wire speedup"); !g.Pass || g.Value != 100.0/190 {
		t.Fatalf("wire speedup read back as %+v", g)
	}
}

// TestCapReportRoundTrip: the capacity report and its baseline file
// are gone; every baseline is BENCH_gate.json, recorded by -write and
// read back by a gating run. This drives that round trip through run
// on a one-cell table of fixed costs: the fresh baseline's drift gate
// reads 1, a gating run against it passes, a ratio grown 25% fails it,
// and a missing baseline fails a full run before it measures anything.
func TestCapReportRoundTrip(t *testing.T) {
	subject, measured := 2.0, 0
	fixed := func(cost *float64) side {
		return func() ([]float64, error) {
			measured++
			return []float64{*cost}, nil
		}
	}
	floor := 1.0
	tab := func(io.Writer, bool) ([]cell, []gate) {
		c := cell{metrics: []metric{{"fixed/a", "s"}}, open: func() (side, side, func(), error) {
			return fixed(&subject), fixed(&floor), nil, nil
		}}
		return []cell{c}, []gate{{name: "fixed drift", cells: "fixed/*"}}
	}
	base := filepath.Join(t.TempDir(), "BENCH_gate.json")
	var sb strings.Builder
	if err := run(&sb, []string{"-write", "-runs", "1", "-baseline", base}, tab); err != nil || !strings.Contains(sb.String(), "baseline written") {
		t.Fatalf("-write: %v\n%s", err, sb.String())
	}
	rec, err := readReport(base)
	if err != nil {
		t.Fatal(err)
	}
	want := Result{Name: "fixed/a", Unit: "s", Subject: 2, Floor: 1, Ratio: 2, Rounds: 1}
	if len(rec.Cells) != 1 || rec.Cells[0] != want || len(rec.Gates) != 1 || !rec.Gates[0].Pass || rec.Gates[0].Value != 1 {
		t.Fatalf("recorded baseline: %+v", rec)
	}
	sb.Reset()
	if err := run(&sb, []string{"-runs", "1", "-baseline", base}, tab); err != nil || !strings.Contains(sb.String(), "gate passed") {
		t.Fatalf("gating run against the fresh baseline: %v\n%s", err, sb.String())
	}
	subject = 2.5
	if err := run(io.Discard, []string{"-runs", "1", "-baseline", base}, tab); err == nil || !strings.Contains(err.Error(), "1 of 1 gates failed") {
		t.Fatalf("a ratio grown 25%% passed: err = %v", err)
	}
	measured = 0
	err = run(io.Discard, []string{"-baseline", filepath.Join(t.TempDir(), "missing.json")}, tab)
	if err == nil || !strings.Contains(err.Error(), "reading baseline") || measured != 0 {
		t.Fatalf("missing baseline: err = %v after %d measured rounds", err, measured)
	}
}

func TestMeasureSortsCorrectly(t *testing.T) {
	res, err := sortCell("kernel/p4/n4096", 4096, 1, sorts(kernel(4), stdlib)).measure(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("%d results, want 1", len(res))
	}
	r := res[0]
	if r.Name != "kernel/p4/n4096" || r.Subject <= 0 || r.Floor <= 0 || r.Ratio != r.Subject/r.Floor || r.Rounds != 1 {
		t.Fatalf("bad result: %+v", r)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-tolerance", "0"}, {"-tolerance", "1"}, {"-tolerance", "-0.1"}, {"-runs", "0"}, {"-observed"}} {
		if err := run(io.Discard, args, table); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestCapacitySpecValidates: the capacity sweep is the QoS cell's knee
// search, which scales qosSpec over its ladder, and the replay scales
// it again by qosLoad. Every rate they can offer must stay a valid
// spec, and quick mode must start the search at the same rate.
func TestCapacitySpecValidates(t *testing.T) {
	for _, quick := range []bool{false, true} {
		s := qosSpec(quick)
		k := qosKneeSearch(io.Discard, s, quick)
		if k.Base != s || k.Start != s.TotalRate() || k.Max < k.Start {
			t.Fatalf("knee search (quick=%v) on %v req/s: base %p, ladder %v..%v", quick, s.TotalRate(), k.Base, k.Start, k.Max)
		}
		var rates []float64
		for r := k.Start; r <= k.Max; r *= 2 {
			rates = append(rates, r)
		}
		rates = append(rates, qosLoad*k.Max)
		for _, r := range rates {
			if err := s.Scaled(r / k.Start).Validate(); err != nil {
				t.Fatalf("qosSpec(quick=%v) at %v req/s invalid: %v", quick, r, err)
			}
		}
	}
	if qosSpec(true).TotalRate() != qosSpec(false).TotalRate() {
		t.Fatal("quick mode must keep the same starting rate")
	}
}

func TestQoSSpecAndConfigValidate(t *testing.T) {
	for _, quick := range []bool{false, true} {
		s := qosSpec(quick)
		// The replay offers the scaled spec to the QoS plane built from
		// it; both must stay valid from the spec's own rate up.
		for _, f := range []float64{1, 0.5, 64} {
			if err := s.Scaled(f).Validate(); err != nil {
				t.Fatalf("qosSpec(quick=%v).Scaled(%v) invalid: %v", quick, f, err)
			}
			if err := qosConfig(s.Scaled(f)).Validate(); err != nil {
				t.Fatalf("qosConfig(quick=%v, x%v) invalid: %v", quick, f, err)
			}
		}
		// The mix is the contract: exactly the two classes the cell
		// reads back out of the reports, at equal offered rates.
		if len(s.Classes) != 2 || s.Classes[0].Name != qosLatClass || s.Classes[1].Name != qosBulkClass {
			t.Fatalf("qosSpec classes: %+v", s.Classes)
		}
		if s.Classes[0].Arrival.Rate != s.Classes[1].Arrival.Rate {
			t.Fatalf("qos mix is not 50/50: %v vs %v", s.Classes[0].Arrival.Rate, s.Classes[1].Arrival.Rate)
		}
	}
}

// TestCorruptSubjectFailsQuickRun runs the quick table with its first
// cell's subject returning one key out of place: the run must fail on
// that cell, although -quick never fails on performance.
func TestCorruptSubjectFailsQuickRun(t *testing.T) {
	corrupt := func(d []int) error {
		slices.Sort(d)
		d[len(d)/2], d[len(d)/2+1] = d[len(d)/2+1], d[len(d)/2]
		return nil
	}
	var name string
	tab := func(w io.Writer, quick bool) ([]cell, []gate) {
		cells, gates := table(w, quick)
		name = cells[0].metrics[0].name
		cells[0] = sortCell(name, 1<<14, 1, sorts(corrupt, stdlib))
		return cells, gates
	}
	err := run(io.Discard, []string{"-quick", "-runs", "1", "-baseline", filepath.Join(t.TempDir(), "missing.json")}, tab)
	if err == nil || !strings.Contains(err.Error(), name+": subject: output is not the keys in order") {
		t.Fatalf("corrupt subject: err = %v", err)
	}
}

// TestQuickSmokeWithoutBaseline runs the whole quick table, as CI does.
func TestQuickSmokeWithoutBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every cell of the table")
	}
	dir := t.TempDir()
	var sb strings.Builder
	err := run(&sb, []string{
		"-quick", "-runs", "1",
		"-baseline", filepath.Join(dir, "missing.json"),
		"-out", filepath.Join(dir, "out.json"),
	}, table)
	if err != nil {
		t.Fatalf("quick smoke must not fail without a baseline: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "smoke passed") {
		t.Fatalf("expected smoke summary, got:\n%s", sb.String())
	}
	rep, err := readReport(filepath.Join(dir, "out.json"))
	if err != nil {
		t.Fatalf("-out report: %v", err)
	}
	cells, gates := table(io.Discard, true)
	if len(rep.Cells) < len(cells) || len(rep.Gates) != len(gates) || !rep.Quick {
		t.Fatalf("report has %d results and %d gates for %d cells and %d gates", len(rep.Cells), len(rep.Gates), len(cells), len(gates))
	}
	if _, err := os.Stat(filepath.Join(dir, "missing.json")); !os.IsNotExist(err) {
		t.Fatalf("a quick run must not write the baseline: %v", err)
	}
}

// TestRunQoSQuickSmoke runs the quick table cut down to the QoS cell and
// its gates end to end, as the quick smoke runs it: the knee search,
// both servers' replays and the ratios, first recording a baseline and
// then against it, gating only correctness.
func TestRunQoSQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server per replay and replays a trace four times")
	}
	qosOnly := func(w io.Writer, quick bool) ([]cell, []gate) {
		cells, gates := table(w, quick)
		cells = slices.DeleteFunc(cells, func(c cell) bool { return !strings.HasPrefix(c.metrics[0].name, "qos/") })
		gates = slices.DeleteFunc(gates, func(g gate) bool { return !strings.HasPrefix(g.cells, "qos/") })
		return cells, gates
	}
	if cells, gates := qosOnly(io.Discard, true); len(cells) != 1 || len(gates) != 2 {
		t.Fatalf("%d QoS cells and %d QoS gates, want 1 and 2", len(cells), len(gates))
	}
	base := filepath.Join(t.TempDir(), "BENCH_gate.json")
	var sb strings.Builder
	if err := run(&sb, []string{"-quick", "-write", "-baseline", base}, qosOnly); err != nil {
		t.Fatalf("write run: %v\n%s", err, sb.String())
	}
	rec, err := readReport(base)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(rec.Cells))
	for i, r := range rec.Cells {
		names[i] = r.Name
	}
	if !slices.Equal(names, []string{"qos/lat-p99", "qos/bulk-ok", "qos/lat-ok"}) || !rec.Quick {
		t.Fatalf("recorded %v (quick %v)", names, rec.Quick)
	}
	sb.Reset()
	if err := run(&sb, []string{"-quick", "-baseline", base}, qosOnly); err != nil {
		t.Fatalf("quick gate run: %v\n%s", err, sb.String())
	}
	for _, want := range []string{"qos: FIFO knee", "smoke passed: 1 cells"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("no %q in:\n%s", want, sb.String())
		}
	}
}
