// Package sizeclass centralizes the sizing policy shared by the
// pooled sort contexts (internal/pool, wfsort.Pool) and the serving
// tiers above them. Before this package existed the
// work-claim batch size lived in the root package and every consumer
// of "how big should the arena be" invented its own answer; pooling
// makes the sizing load-bearing (a pooled context's capacity decides
// which requests it can serve), so there is exactly one copy of the
// rules and a unit test pins the class boundaries.
package sizeclass

import "fmt"

const (
	// MinClass is the smallest pooled arena capacity. Below it the
	// fixed costs of a parallel sort dwarf the work, so tiny inputs
	// get an exact-size context (see FreshCutoff) instead of occupying
	// a pooled context built for MinClass elements.
	MinClass = 256

	// MaxClass is the largest pooled arena capacity. Inputs above it
	// get an exact-size context that is built for the request and
	// released afterwards; retaining multi-gigabyte arenas on a free
	// list is how serving processes quietly eat their hosts.
	MaxClass = 1 << 20

	// FreshCutoff is the largest input a pool sorts on a freshly laid
	// out exact-size context rather than a size-class one: the padding
	// overhead of rounding a tiny input up to MinClass exceeds the cost
	// of just building a tiny arena. Such sorts still run on a resident
	// team of the pool, and skip its admission queue.
	FreshCutoff = 64

	// DefaultMaxKeys is the default request size limit for a single
	// sort backend (internal/server): one MaxClass arena. Requests
	// above a surface's limit are rejected with 413 via CheckLimit, so
	// every serving path — JSON, binary wire, /sort and /shard — shares
	// one sizing rule instead of per-handler constants.
	DefaultMaxKeys = MaxClass

	// DefaultCoordinatorMaxKeys is the default request size limit for
	// the cluster coordinator (internal/cluster): four backend arenas.
	// The coordinator exists to take sorts bigger than one backend's
	// limit, and expresses that headroom in the same MaxClass unit.
	DefaultCoordinatorMaxKeys = 4 * MaxClass
)

// Classes returns every pooled capacity, ascending: powers of two from
// MinClass to MaxClass. Power-of-two growth bounds the padding a
// request pays at under 2x its own size while keeping the class count
// (and therefore idle-arena memory) logarithmic.
func Classes() []int {
	var out []int
	for c := MinClass; c <= MaxClass; c *= 2 {
		out = append(out, c)
	}
	return out
}

// For returns the smallest pooled capacity that fits n, with ok=false
// when n exceeds MaxClass (the caller should build an exact-size
// context and not pool it).
func For(n int) (capacity int, ok bool) {
	if n > MaxClass {
		return 0, false
	}
	c := MinClass
	for c < n {
		c *= 2
	}
	return c, true
}

// Limit resolves a configured request cap: the configured value when
// positive, the surface's fallback otherwise. Serving configs call it
// from fill() so "zero means the shared default" is one rule, not one
// per handler.
func Limit(configured, fallback int) int {
	if configured > 0 {
		return configured
	}
	return fallback
}

// CheckLimit reports whether a request of n keys fits the limit, and
// when it does not, the canonical 413 message every surface returns
// (and tests match against). internal/wire's ErrTooLarge detail uses
// the same wording, so a binary rejection reads identically.
func CheckLimit(n, limit int) (ok bool, msg string) {
	if n <= limit {
		return true, ""
	}
	return false, fmt.Sprintf("n=%d exceeds the %d-key limit", n, limit)
}

// Batch picks the work-claim granularity of the §3 sort's LC-WAT jobs
// on the native sharded layout: large enough to amortize the trees'
// probe traffic, small enough that every worker still sees at least a
// few blocks to claim. Wait-freedom never depends on the choice — a
// block is just a bigger idempotent job.
func Batch(n, workers int) int {
	b := n / (4 * workers)
	if b > 128 {
		b = 128
	}
	if b < 1 {
		b = 1
	}
	return b
}
