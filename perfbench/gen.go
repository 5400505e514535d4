package main

import (
	"io"
	"math/rand/v2"
)

// Seeded input generators. Every input the program under test sees is
// drawn from a PCG stream keyed by (seed, stream), so the same seed
// reproduces the same bytes; the streams separate independent
// consumers (each serve-mix client, set-up versus measurement) so that
// how far one of them got never shifts another's inputs.

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// between draws uniformly from [lo, hi].
func between(r *rand.Rand, lo, hi int) int { return lo + r.IntN(hi-lo+1) }

// rec is keyed-bulk's 32-byte record. pad[0] holds the record's input
// position, so an unstable sort of equal keys is visible byte for byte.
type rec struct {
	key int64
	pad [3]int64
}

// Key shapes for keyed-bulk.
const (
	shapeUniform = iota
	shapeNearlySorted
	shapeDupHeavy
	numShapes
)

// genRecords fills dst with n records of the given key shape.
func genRecords(r *rand.Rand, dst []rec, shape int) {
	n := len(dst)
	for i := range dst {
		var k int64
		switch shape {
		case shapeUniform:
			k = int64(r.Uint64())
		case shapeNearlySorted:
			k = int64(i)*1024 - int64(n)*512
		case shapeDupHeavy:
			k = int64(r.IntN(1024))*7919 - 4_000_000
		}
		dst[i] = rec{key: k, pad: [3]int64{int64(i), -int64(i), k ^ 0x5bd1e995}}
	}
	if shape == shapeNearlySorted {
		// 1% random swaps.
		for s := 0; s < n/100; s++ {
			a, b := r.IntN(n), r.IntN(n)
			dst[a].key, dst[b].key = dst[b].key, dst[a].key
			dst[a].pad[2], dst[b].pad[2] = dst[b].pad[2], dst[a].pad[2]
		}
	}
}

// genKeys fills dst with uniform int64 keys.
func genKeys(r *rand.Rand, dst []int64) {
	for i := range dst {
		dst[i] = int64(r.Uint64())
	}
}

// ledger is the multiset fingerprint the oracles compare: count, sum
// and xor of the keys (sums wrap, as in internal/wire).
type ledger struct {
	n        int64
	sum, xor int64
}

func (l *ledger) add(keys []int64) {
	for _, k := range keys {
		l.sum += k
		l.xor ^= k
	}
	l.n += int64(len(keys))
}

func ledgerOf(keys []int64) ledger {
	var l ledger
	l.add(keys)
	return l
}

// keySource is stream-spill's generating KeyReader: it draws n uniform
// keys on the fly, so the benchmark holds no copy of the input, and
// folds what it produced into a ledger for the sink to check.
type keySource struct {
	r    *rand.Rand
	left int
	in   ledger
}

func (s *keySource) ReadKeys(buf []int64) (int, error) {
	if s.left == 0 {
		return 0, io.EOF
	}
	n := min(len(buf), s.left)
	genKeys(s.r, buf[:n])
	s.in.add(buf[:n])
	s.left -= n
	if s.left == 0 {
		return n, io.EOF
	}
	return n, nil
}
