package wfsort

// The keyed sort path. Production traffic is overwhelmingly "sort these
// records by this integer field", and for that shape a comparator call
// per comparison is pure overhead. The keyed path extracts one uint64
// key per element into a pooled key buffer and sorts the KEYS through
// the same wait-free arenas, teams, admission queue and fault planes as
// every other sort (the shared body is sortOn). Like the comparator
// path it then reorders the caller's slice in place by walking the
// permutation's swap cycles, so element payloads are never copied:
// memory traffic per element is 8 bytes of key plus the O(1) swaps of
// the cycle walk, independent of payload size. Keys must embed the
// desired order in uint64 ascending order; Int64Key converts a signed
// key order-preservingly. Ties are broken by original position, so
// keyed sorts are stable like every other wfsort sort. For orderings a
// uint64 cannot encode, SortFunc and NewSorterFunc remain the
// comparator fallback.

import (
	"context"
	"fmt"
	"sync"
)

// Int64Key maps an int64 to a uint64 preserving order: flip the sign
// bit and negative keys sort below positive ones. It is the key
// function for "sort these int64s" workloads (the serving tier's hot
// path) and the model for packing signed fields in general.
func Int64Key(k int64) uint64 { return uint64(k) ^ (1 << 63) }

// SortKeyed sorts data in place, stably, by key ascending, without
// copying element payloads: only the extracted uint64 keys enter the
// sort arena, and a permutation cycle-walk reorders data afterwards.
// key is called once per element before sorting begins and must be
// pure. All one-shot options (workers, seed, fault planes) apply as in
// SortFunc.
func SortKeyed[T any](data []T, key func(T) uint64, opts ...Option) error {
	n := len(data)
	if key == nil {
		return fmt.Errorf("wfsort: SortKeyed requires a key function")
	}
	if n < 2 {
		return nil
	}
	p, err := oneCall(n, opts)
	if err != nil {
		return err
	}
	return sortOn(context.Background(), p, data, extractKeys(data, key, make([]uint64, n)), nil)
}

// extractKeys fills keys[:len(data)] with each element's key.
func extractKeys[T any](data []T, key func(T) uint64, keys []uint64) []uint64 {
	keys = keys[:len(data)]
	for i := range data {
		keys[i] = key(data[i])
	}
	return keys
}

// keyedLess orders arena indices 1..capacity by keys, ties by index,
// with the virtual padding of funcLess: indices past len(keys) compare
// greatest, and an exact fit skips the pad branch entirely.
func keyedLess(keys []uint64, capacity int) func(i, j int) bool {
	n := len(keys)
	if n == capacity {
		return func(i, j int) bool {
			a, b := keys[i-1], keys[j-1]
			return a < b || (a == b && i < j)
		}
	}
	return func(i, j int) bool {
		pi, pj := i > n, j > n
		switch {
		case pi && pj:
			return i < j
		case pi:
			return false
		case pj:
			return true
		}
		a, b := keys[i-1], keys[j-1]
		return a < b || (a == b && i < j)
	}
}

// permuteInPlace moves data[i] to position places[i]-1 by walking the
// permutation's swap cycles: each swap lands one element in its final
// slot, so the walk is O(n) swaps with no scratch slice. places is
// consumed as the visited map and left as the identity. The swap
// budget turns a corrupted rank vector (out-of-range or duplicated
// ranks — unreachable under the built-in fault planes, which never
// target worker 0) into an error instead of an infinite loop, and the
// data slice is only ever permuted, never partially overwritten.
func permuteInPlace[T any](data []T, places []int) error {
	n := len(data)
	swaps := 0
	for i := range data {
		for {
			d := places[i] - 1
			if d == i {
				break
			}
			if d < 0 || d >= n || swaps >= n {
				return fmt.Errorf("wfsort: sort incomplete (element %d unranked)", i+1)
			}
			data[i], data[d] = data[d], data[i]
			places[i], places[d] = places[d], places[i]
			swaps++
		}
	}
	return nil
}

// KeyedSorter is the reusable form of SortKeyed: pooled arenas,
// resident teams, QoS and tracing via context —
// exactly Sorter's machinery — ordered by extracted keys. Create one
// with NewKeyedSorter; it is safe for concurrent use (concurrent sorts
// borrow separate contexts and key buffers).
type KeyedSorter[T any] struct {
	p     *Pool
	owned bool
	key   func(T) uint64
	keys  sync.Pool // *[]uint64 extracted-key buffers
}

// NewKeyedSorter returns a reusable keyed sorter. key is called once
// per element per sort and must be pure. Without WithPool the sorter
// owns a private pool configured by opts (Close releases it); with
// WithPool it borrows from the shared pool — sharing one pool between
// keyed and comparator sorters is fine, contexts are key-agnostic —
// and no other option may be given.
func NewKeyedSorter[T any](key func(T) uint64, opts ...Option) (*KeyedSorter[T], error) {
	if key == nil {
		return nil, fmt.Errorf("wfsort: NewKeyedSorter requires a key function")
	}
	p, owned, err := sorterPool(opts)
	if err != nil {
		return nil, err
	}
	return &KeyedSorter[T]{p: p, owned: owned, key: key}, nil
}

// Close releases the sorter's pool when it owns one.
func (s *KeyedSorter[T]) Close() {
	if s.owned {
		s.p.Close()
	}
}

// Stats snapshots the backing pool's context counters.
func (s *KeyedSorter[T]) Stats() PoolStats { return s.p.Stats() }

// Sort sorts data in place, stably, by extracted key ascending.
func (s *KeyedSorter[T]) Sort(data []T) error {
	return s.SortContext(context.Background(), data)
}

// SortContext is Sort with cancellation: a canceled ctx kills the
// workers mid-sort and returns ctx.Err() with data unchanged — the
// keyed path touches data only in the final in-place permutation,
// which runs solely on success.
func (s *KeyedSorter[T]) SortContext(ctx context.Context, data []T) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(data) < 2 {
		return nil
	}
	kb := s.getKeys(len(data))
	defer s.keys.Put(kb)
	return sortOn(ctx, s.p, data, extractKeys(data, s.key, *kb), nil)
}

// getKeys borrows a key buffer with length >= n.
func (s *KeyedSorter[T]) getKeys(n int) *[]uint64 {
	if v := s.keys.Get(); v != nil {
		b := v.(*[]uint64)
		if cap(*b) >= n {
			*b = (*b)[:cap(*b)]
			return b
		}
	}
	b := make([]uint64, n)
	return &b
}
