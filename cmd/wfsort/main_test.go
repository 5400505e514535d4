package main

import (
	"bytes"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func runCLI(t *testing.T, stdin string, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errBuf bytes.Buffer
	err = run(strings.NewReader(stdin), &out, &errBuf, args)
	return out.String(), errBuf.String(), err
}

func parseInts(t *testing.T, s string) []int {
	t.Helper()
	var out []int
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		if line == "" {
			continue
		}
		v, err := strconv.Atoi(line)
		if err != nil {
			t.Fatalf("bad output line %q", line)
		}
		out = append(out, v)
	}
	return out
}

func TestCLISortsStdin(t *testing.T) {
	out, _, err := runCLI(t, "5\n3\n9\n1\n")
	if err != nil {
		t.Fatal(err)
	}
	got := parseInts(t, out)
	want := []int{1, 3, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output %v, want %v", got, want)
		}
	}
}

func TestCLIGenerates(t *testing.T) {
	out, stderr, err := runCLI(t, "", "-gen", "50", "-stats", "-workers", "3")
	if err != nil {
		t.Fatal(err)
	}
	got := parseInts(t, out)
	if len(got) != 50 || !sort.IntsAreSorted(got) {
		t.Fatalf("output not a sorted 50-element list")
	}
	if !strings.Contains(stderr, "sorted 50 integers") {
		t.Errorf("stats missing: %q", stderr)
	}
}

func TestCLIVariants(t *testing.T) {
	for _, v := range []string{"det", "rand", "lowcont", "deterministic", "randomized", "lowcontention"} {
		out, _, err := runCLI(t, "", "-gen", "40", "-sim", "-variant", v, "-workers", "8")
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !sort.IntsAreSorted(parseInts(t, out)) {
			t.Errorf("%s: not sorted", v)
		}
	}
}

func TestCLIUnknownVariant(t *testing.T) {
	if _, _, err := runCLI(t, "", "-gen", "4", "-variant", "bogus"); err == nil {
		t.Fatal("bogus variant accepted")
	}
}

func TestCLISimulate(t *testing.T) {
	out, stderr, err := runCLI(t, "", "-gen", "32", "-sim", "-workers", "32", "-seed", "5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "steps=") || !strings.Contains(stderr, "tree depth:") {
		t.Errorf("simulation stats missing: %q", stderr)
	}
	if !sort.IntsAreSorted(parseInts(t, out)) {
		t.Error("simulated output not sorted")
	}
}

func TestCLIQuiet(t *testing.T) {
	out, _, err := runCLI(t, "", "-gen", "10", "-quiet")
	if err != nil {
		t.Fatal(err)
	}
	if out != "" {
		t.Errorf("quiet mode printed %q", out)
	}
}

func TestCLIBadInput(t *testing.T) {
	if _, _, err := runCLI(t, "12\nnope\n"); err == nil {
		t.Fatal("non-integer input accepted")
	}
}

func TestCLIEmptyInput(t *testing.T) {
	out, _, err := runCLI(t, "")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "" {
		t.Errorf("empty input produced %q", out)
	}
}

func TestCLISkipsBlankLines(t *testing.T) {
	out, _, err := runCLI(t, "3\n\n1\n\n2\n")
	if err != nil {
		t.Fatal(err)
	}
	got := parseInts(t, out)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("output %v", got)
	}
}
