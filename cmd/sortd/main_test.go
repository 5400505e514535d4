package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestSortdServesAndDrains boots the daemon on a random port, sorts
// through it, then cancels the context and expects a clean drain.
func TestSortdServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2", "-churn", "1"}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("sortd exited early: %v (output: %s)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("sortd never became ready")
	}

	keys := []int64{9, 2, 7, 2, 5, 1, 9, 0}
	body, _ := json.Marshal(map[string]any{"keys": keys})
	resp, err := http.Post("http://"+addr+"/sort", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		Sorted []int64 `json:"sorted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want := append([]int64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if sr.Sorted[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", sr.Sorted, want)
		}
	}

	if resp, err := http.Get("http://" + addr + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v / %v", err, resp)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain failed: %v (output: %s)", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sortd did not drain")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Fatalf("no drain confirmation in output: %s", out.String())
	}
}

// TestSortdRejectsBadFlags locks the flag validation.
func TestSortdRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-crash-frac", "1.5"}, &out, nil); err == nil {
		t.Fatal("crash fraction above 1 accepted")
	}
}

// TestSortdQoSFlag boots the daemon with a QoS config file, expects
// the banner to announce the plane, and round-trips a classed sort.
func TestSortdQoSFlag(t *testing.T) {
	cfgPath := filepath.Join(t.TempDir(), "qos.json")
	cfg := `{"classes": [
		{"name": "default", "rate": 1000, "burst": 100, "priority": 1},
		{"name": "lat", "rate": 1000, "burst": 100, "priority": 0}
	]}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2", "-qos", cfgPath}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("sortd exited early: %v (output: %s)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("sortd never became ready")
	}
	if !strings.Contains(out.String(), "qos=2 classes") {
		t.Fatalf("banner does not announce the qos plane: %s", out.String())
	}

	body, _ := json.Marshal(map[string]any{"keys": []int64{3, 1, 2}})
	req, _ := http.NewRequest(http.MethodPost, "http://"+addr+"/sort", bytes.NewReader(body))
	req.Header.Set("X-Sort-Class", "lat")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classed sort status %d", resp.StatusCode)
	}

	// An unconfigured class is a 400, not traffic in disguise.
	req, _ = http.NewRequest(http.MethodPost, "http://"+addr+"/sort", bytes.NewReader(body))
	req.Header.Set("X-Sort-Class", "ghost")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown class status %d, want 400", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain failed: %v (output: %s)", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sortd did not drain")
	}
}

// TestSortdRejectsBadQoSConfig locks the -qos failure modes: a missing
// file and an invalid config both abort startup with a clear error.
func TestSortdRejectsBadQoSConfig(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-qos", filepath.Join(t.TempDir(), "absent.json")}, &out, nil)
	if err == nil {
		t.Fatal("missing qos config accepted")
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"classes": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), []string{"-qos", bad}, &out, nil)
	if err == nil || !strings.Contains(err.Error(), "classes") {
		t.Fatalf("empty-classes config: err = %v, want a qos config error naming classes", err)
	}
}
