package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTraceChart(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, []string{"-n", "64", "-variant", "det", "-width", "40", "-height", "5"})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"det sort", "steps=", "1:build", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
}

func TestTraceRegions(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, []string{"-n", "64", "-variant", "lowcont", "-width", "20", "-height", "3", "-regions"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "winner") {
		t.Errorf("region table missing:\n%s", buf.String())
	}
}

func TestTraceCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-n", "32", "-variant", "rand", "-csv"}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "step,active,contention,phase") {
		t.Errorf("csv header wrong:\n%.80s", buf.String())
	}
}

func TestTraceUnknownVariant(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-variant", "zzz"}); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

// TestTraceUnknownMetric pins the fixed -metric behavior: an
// unrecognized metric must be a hard error naming the valid choices,
// not a silent contention chart.
func TestTraceUnknownMetric(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, []string{"-n", "32", "-metric", "steps"})
	if err == nil {
		t.Fatal("unknown -metric accepted")
	}
	for _, want := range []string{"steps", "contention", "active"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
}

func TestTraceUnknownRuntimeAndLayout(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-runtime", "jvm"}); err == nil {
		t.Fatal("unknown -runtime accepted")
	}
	// The native runtime runs one sort, so there is no -layout flag.
	if err := run(&buf, []string{"-runtime", "native", "-layout", "sharded"}); err == nil {
		t.Fatal("removed -layout flag accepted")
	}
}

func TestTraceNativePerfetto(t *testing.T) {
	path := filepath.Join(t.TempDir(), "native.json")
	var buf bytes.Buffer
	err := run(&buf, []string{"-runtime", "native", "-n", "256", "-p", "4", "-out", path})
	if err != nil {
		t.Fatalf("native trace: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "perfetto trace written") {
		t.Errorf("summary missing:\n%s", buf.String())
	}
	assertTraceFile(t, path)
}

func TestTraceSimPerfetto(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sim.json")
	var buf bytes.Buffer
	err := run(&buf, []string{"-n", "64", "-variant", "det", "-perfetto", "-out", path})
	if err != nil {
		t.Fatalf("sim perfetto: %v", err)
	}
	assertTraceFile(t, path)
}

// assertTraceFile checks the file parses as a Chrome trace-event JSON
// with at least one event.
func assertTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
}
