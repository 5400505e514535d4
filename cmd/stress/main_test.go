package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestStressCampaign(t *testing.T) {
	var buf bytes.Buffer
	failures := run(&buf, options{duration: 2 * time.Second, seed: 7, maxN: 64})
	if failures != 0 {
		t.Fatalf("campaign failures:\n%s", buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "stress:") {
		t.Errorf("summary missing:\n%s", out)
	}
	// Both runtimes must show up in the breakdown.
	if !strings.Contains(out, "sim variant=") || !strings.Contains(out, "native kernel") {
		t.Errorf("campaign should mix sim and native runs:\n%s", out)
	}
}

func TestStressVerbose(t *testing.T) {
	var buf bytes.Buffer
	if failures := run(&buf, options{duration: 500 * time.Millisecond, seed: 8, maxN: 32, verbose: true}); failures != 0 {
		t.Fatalf("failures:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "ok ") {
		t.Errorf("verbose lines missing:\n%s", buf.String())
	}
}

func TestStressListen(t *testing.T) {
	pr, pw := io.Pipe()
	done := make(chan int, 1)
	go func() {
		var buf bytes.Buffer
		failures := run(io.MultiWriter(pw, &buf), options{
			duration: 2 * time.Second, seed: 9, maxN: 64, listen: "127.0.0.1:0",
		})
		pw.Close()
		done <- failures
	}()

	// The first output line announces the bound address.
	var first string
	if _, err := fmt.Fscanf(pr, "stress: live metrics on %s\n", &first); err != nil {
		t.Fatalf("no listen banner: %v", err)
	}
	go io.Copy(io.Discard, pr)
	m := regexp.MustCompile(`^http://(.*)/metrics$`).FindStringSubmatch(first)
	if m == nil {
		t.Fatalf("unexpected banner %q", first)
	}

	// Poll /metrics while the campaign runs: it must serve either an
	// idle report or a live snapshot with per-processor op ordinals.
	deadline := time.Now().Add(2 * time.Second)
	sawSnapshot := false
	for time.Now().Before(deadline) && !sawSnapshot {
		resp, err := http.Get("http://" + m[1] + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		var body map[string]any
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode /metrics: %v", err)
		}
		if _, ok := body["ops_per_proc"]; ok {
			sawSnapshot = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawSnapshot {
		t.Error("never saw a live snapshot on /metrics")
	}
	if failures := <-done; failures != 0 {
		t.Fatalf("campaign failures: %d", failures)
	}
}

// TestStressRejectsBadFlags: sizes the campaign cannot draw, or no time
// to run, exit with status 2 and a message before any run starts.
func TestStressRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-duration", "1s", "-maxn", "5"},
		{"-duration", "1s", "-maxn", "0"},
		{"-duration", "0s"},
		{"-duration", "-1s"},
		{"-nope"},
	} {
		var stdout, stderr bytes.Buffer
		if code := stress(args, &stdout, &stderr); code != 2 || stderr.Len() == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2 with a message and no runs", args, code, stdout.String(), stderr.String())
		}
	}
	var stdout bytes.Buffer
	if code := stress([]string{"-duration", "50ms", "-maxn", "8"}, &stdout, io.Discard); code != 0 {
		t.Errorf("the smallest campaign exited %d:\n%s", code, stdout.String())
	}
}
