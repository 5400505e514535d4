package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func report(host Host, cells ...Result) *Report {
	return &Report{Host: host, Results: cells}
}

var hostA = Host{GOOS: "linux", GOARCH: "amd64", GoVersion: "go1.24.0", GOMAXPROCS: 8, NumCPU: 8}
var hostB = Host{GOOS: "darwin", GOARCH: "arm64", GoVersion: "go1.24.0", GOMAXPROCS: 10, NumCPU: 10}

func TestCompareAbsoluteGate(t *testing.T) {
	base := report(hostA, Result{P: 8, N: 1 << 18, ElemsPerSec: 1000, StdlibElemsPerSec: 2000})

	// Within tolerance: no failures.
	cur := report(hostA, Result{P: 8, N: 1 << 18, ElemsPerSec: 950, StdlibElemsPerSec: 1900})
	if f := compare(base, cur, 0.10); len(f) != 0 {
		t.Fatalf("expected clean gate, got %v", f)
	}

	// 20% absolute drop with the floor unchanged fails both gates; the
	// absolute one comes first and names the cell.
	cur = report(hostA, Result{P: 8, N: 1 << 18, ElemsPerSec: 800, StdlibElemsPerSec: 2000})
	f := compare(base, cur, 0.10)
	if len(f) == 0 {
		t.Fatal("expected absolute-throughput regression to fail the gate")
	}
	if !strings.Contains(f[0], "throughput") || !strings.Contains(f[0], "kernel/p8") {
		t.Fatalf("failure should name the cell: %v", f)
	}
}

func TestCompareRatioGateIsHostIndependent(t *testing.T) {
	base := report(hostA, Result{P: 8, N: 1 << 18, ElemsPerSec: 1000, StdlibElemsPerSec: 2000}) // 0.5x

	// Different host, globally slower, but the ratio holds: pass.
	cur := report(hostB, Result{P: 8, N: 1 << 18, ElemsPerSec: 400, StdlibElemsPerSec: 800}) // 0.5x
	if f := compare(base, cur, 0.10); len(f) != 0 {
		t.Fatalf("ratio gate should pass across hosts, got %v", f)
	}

	// Different host and the kernel fell further behind its floor: fail.
	cur = report(hostB, Result{P: 8, N: 1 << 18, ElemsPerSec: 300, StdlibElemsPerSec: 800}) // 0.375x
	f := compare(base, cur, 0.10)
	if len(f) != 1 || !strings.Contains(f[0], "ratio kernel/slices.Sort") {
		t.Fatalf("expected exactly the ratio failure, got %v", f)
	}
}

func TestCompareObserverOverheadGate(t *testing.T) {
	base := report(hostA, Result{P: 8, N: 1 << 18, ElemsPerSec: 1000})

	// 5% overhead with the observer installed: within a 10% tolerance.
	cur := report(hostB,
		Result{P: 8, N: 1 << 18, ElemsPerSec: 1000},
		Result{P: 8, N: 1 << 18, Observed: true, ElemsPerSec: 950})
	if f := compare(base, cur, 0.10); len(f) != 0 {
		t.Fatalf("5%% observer overhead should pass, got %v", f)
	}

	// 25% overhead must fail, on any host, with no baseline cells.
	cur = report(hostB,
		Result{P: 8, N: 1 << 18, ElemsPerSec: 1000},
		Result{P: 8, N: 1 << 18, Observed: true, ElemsPerSec: 750})
	f := compare(base, cur, 0.10)
	if len(f) != 1 || !strings.Contains(f[0], "observer overhead") {
		t.Fatalf("expected exactly the observer-overhead failure, got %v", f)
	}
}

func TestCompareSkipsUnknownCells(t *testing.T) {
	base := report(hostA, Result{P: 8, N: 1 << 18, ElemsPerSec: 1000, StdlibElemsPerSec: 2000})
	cur := report(hostA, Result{P: 4, N: 1 << 16, ElemsPerSec: 1, StdlibElemsPerSec: 2000})
	if f := compare(base, cur, 0.10); len(f) != 0 {
		t.Fatalf("cells absent from the baseline must not gate, got %v", f)
	}
}

func TestHostComparable(t *testing.T) {
	if !hostA.comparable(hostA) {
		t.Fatal("identical hosts must be comparable")
	}
	if hostA.comparable(hostB) {
		t.Fatal("different hosts must not be comparable")
	}
	upgraded := hostA
	upgraded.GoVersion = "go1.99.0"
	if !hostA.comparable(upgraded) {
		t.Fatal("a Go version bump alone must not disable the gate")
	}
}

func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	in := report(hostA,
		Result{P: 8, N: 262144, ElemsPerSec: 123456.5, StdlibElemsPerSec: 234567.5, Runs: 3})
	if err := writeReport(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Host != in.Host || len(out.Results) != 1 || out.Results[0] != in.Results[0] {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestMeasureSortsCorrectly(t *testing.T) {
	r, err := measure(cellSpec{p: 4, n: 4096}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.ElemsPerSec <= 0 || r.StdlibElemsPerSec <= 0 || r.N != 4096 || r.P != 4 {
		t.Fatalf("bad result: %+v", r)
	}
}

func TestQuickSmokeWithoutBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sorts")
	}
	dir := t.TempDir()
	var sb strings.Builder
	err := run(&sb, []string{
		"-quick", "-runs", "1",
		"-baseline", filepath.Join(dir, "missing.json"),
		"-out", filepath.Join(dir, "out.json"),
	})
	if err != nil {
		t.Fatalf("quick smoke must not fail without a baseline: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "smoke passed") {
		t.Fatalf("expected smoke summary, got:\n%s", sb.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "out.json")); err != nil {
		t.Fatalf("-out report not written: %v", err)
	}
}
