package sizeclass

import "testing"

// TestClassBoundaries locks the size-class ladder: the pooled layer's
// contexts are keyed by these capacities, so silently shifting a
// boundary would invalidate every checked-in serving baseline.
func TestClassBoundaries(t *testing.T) {
	classes := Classes()
	if classes[0] != MinClass {
		t.Fatalf("first class = %d, want MinClass %d", classes[0], MinClass)
	}
	if classes[len(classes)-1] != MaxClass {
		t.Fatalf("last class = %d, want MaxClass %d", classes[len(classes)-1], MaxClass)
	}
	for i := 1; i < len(classes); i++ {
		if classes[i] != 2*classes[i-1] {
			t.Fatalf("classes[%d] = %d, want double of %d", i, classes[i], classes[i-1])
		}
	}

	cases := []struct {
		n, capacity int
		ok          bool
	}{
		{0, MinClass, true},
		{1, MinClass, true},
		{MinClass - 1, MinClass, true},
		{MinClass, MinClass, true},
		{MinClass + 1, 2 * MinClass, true},
		{2*MinClass - 1, 2 * MinClass, true},
		{2 * MinClass, 2 * MinClass, true},
		{MaxClass - 1, MaxClass, true},
		{MaxClass, MaxClass, true},
		{MaxClass + 1, 0, false},
	}
	for _, c := range cases {
		capacity, ok := For(c.n)
		if capacity != c.capacity || ok != c.ok {
			t.Errorf("For(%d) = (%d, %v), want (%d, %v)", c.n, capacity, ok, c.capacity, c.ok)
		}
	}
}

// TestLimitAndCheckLimit locks the one shared 413 rule: zero config
// means the surface default, and every path emits the same message.
func TestLimitAndCheckLimit(t *testing.T) {
	if got := Limit(0, DefaultMaxKeys); got != DefaultMaxKeys {
		t.Fatalf("Limit(0) = %d", got)
	}
	if got := Limit(-5, DefaultCoordinatorMaxKeys); got != DefaultCoordinatorMaxKeys {
		t.Fatalf("Limit(-5) = %d", got)
	}
	if got := Limit(42, DefaultMaxKeys); got != 42 {
		t.Fatalf("Limit(42) = %d", got)
	}
	if DefaultCoordinatorMaxKeys <= DefaultMaxKeys {
		t.Fatal("coordinator default must exceed the backend default")
	}
	if ok, msg := CheckLimit(10, 10); !ok || msg != "" {
		t.Fatalf("CheckLimit(10,10) = %v %q", ok, msg)
	}
	ok, msg := CheckLimit(11, 10)
	if ok {
		t.Fatal("CheckLimit(11,10) accepted")
	}
	if msg != "n=11 exceeds the 10-key limit" {
		t.Fatalf("413 message drifted: %q", msg)
	}
}
