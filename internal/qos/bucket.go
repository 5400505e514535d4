// Package qos is the serving stack's quality-of-service plane:
// token-bucket admission control per traffic class, a priority/
// deadline-aware queue policy for a pool's admission queue, and a
// deterministic replay simulator that certifies scheduling decisions
// byte-for-byte.
//
// Everything in this package computes on int64 nanoseconds from a
// caller-supplied monotonic clock. No floats touch a decision after
// construction, so identical inputs produce identical admit/shed/
// dispatch sequences on every platform — the property the golden
// replay tests pin down.
package qos

import (
	"math"
	"sync/atomic"
)

// paddedAtomicInt64 keeps each bucket's state word on its own cache
// line so per-class buckets in one Plane don't false-share.
type paddedAtomicInt64 struct {
	v atomic.Int64
	_ [7]int64
}

// Bucket is a GCRA token bucket: one atomic int64 of state, zero
// allocations per Take, safe for concurrent use. The word is the
// bucket's virtual time vt — the instant by which all admitted work is
// "paid for". A request needs n·nsPerTok nanoseconds of budget;
// capacity is burst·nsPerTok nanoseconds (the bucket starts full).
//
// Take admits iff max(vt, now−burstNs) + need ≤ now; on admission vt
// advances by need from that floor, so an idle bucket refills toward
// full but never beyond. With burst = 0 the bucket admits nothing —
// a deliberate deny-all, not an error.
type Bucket struct {
	nsPerTok int64
	burstNs  int64
	vt       paddedAtomicInt64
}

// NewBucket returns a bucket refilling at rate tokens/second holding
// at most burst tokens, initially full. rate is clamped to (0, 1e9]
// tokens/second — finer than 1 ns/token is not representable — and a
// non-positive or NaN rate denies everything, like burst = 0.
func NewBucket(rate float64, burst int) *Bucket {
	b := &Bucket{}
	if !(rate > 0) { // NaN-safe
		b.nsPerTok = math.MaxInt64
		burst = 0 // a token would never finish refilling: deny-all
	} else if rate >= 1e9 {
		b.nsPerTok = 1
	} else {
		b.nsPerTok = int64(1e9/rate + 0.5)
		if b.nsPerTok < 1 {
			b.nsPerTok = 1
		}
	}
	if burst < 0 {
		burst = 0
	}
	b.burstNs = satMul(int64(burst), b.nsPerTok)
	b.vt.v.Store(satNeg(b.burstNs))
	return b
}

// Take attempts to remove n tokens at monotonic instant now (ns).
// It returns ok = true on admission. On denial, retryNs is how long
// after now the same Take would succeed — the Retry-After hint —
// assuming no competing traffic; it is always > 0.
//
// now must come from a monotonic clock. A stalled or repeated now is
// safe (vt only moves forward); a regressing now merely under-refills.
func (b *Bucket) Take(now int64, n int) (ok bool, retryNs int64) {
	if n <= 0 {
		return true, 0
	}
	need := satMul(int64(n), b.nsPerTok)
	for {
		vt := b.vt.v.Load()
		eff := vt
		if m := satSub(now, b.burstNs); eff < m {
			eff = m
		}
		avail := satSub(now, eff)
		if avail < need {
			return false, satSub(need, avail)
		}
		if b.vt.v.CompareAndSwap(vt, satAdd(eff, need)) {
			return true, 0
		}
	}
}

// Tokens reports the whole tokens available at instant now — a
// metrics convenience, not a reservation.
func (b *Bucket) Tokens(now int64) int64 {
	vt := b.vt.v.Load()
	eff := vt
	if m := satSub(now, b.burstNs); eff < m {
		eff = m
	}
	avail := satSub(now, eff)
	if avail <= 0 {
		return 0
	}
	return avail / b.nsPerTok
}

// satAdd, satSub, satMul and satNeg are int64 arithmetic that pin at
// the extremes instead of wrapping: a bucket configured near the
// representable edge degrades to deny/allow-forever rather than
// flipping sign.
func satAdd(a, b int64) int64 {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		if a > 0 {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return s
}

func satSub(a, b int64) int64 {
	if b == math.MinInt64 {
		if a >= 0 {
			return math.MaxInt64
		}
		return satAdd(satAdd(a, math.MaxInt64), 1)
	}
	return satAdd(a, -b)
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a {
		if (a > 0) == (b > 0) {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return p
}

func satNeg(a int64) int64 {
	if a == math.MinInt64 {
		return math.MaxInt64
	}
	return -a
}
