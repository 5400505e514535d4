package wfsort

// The streaming external sort: sort N ≫ memory by sorting pooled
// size-class chunks concurrently and k-way merging the sorted runs.
// SortStream reads keys from a KeyReader in chunks of ChunkKeys, sorts
// each chunk as one pooled job on a resident team of its own (Depth of
// them at a time, overlapping the reads and spill writes), spills
// sorted chunks as wire.KindChunk blocks in one temporary file, and
// finally streams a k-way merge (internal/merge) of the spilled runs
// into the KeyWriter. Peak memory is
// O(Depth·ChunkKeys + fan-in·MergeBufKeys), independent of N; the
// single-chunk case skips the spill entirely. Each chunk job carries
// the caller's context — deadline, QoS class and trace sink propagate
// per chunk exactly as they do per request on the serving path — and
// every spilled block's ledger plus the final output ledger are
// verified against the fold of what was read, so a lost, duplicated
// or corrupted key anywhere in the chunk/spill/merge pipeline surfaces
// as an error instead of silently wrong output.

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"

	"wfsort/internal/merge"
	"wfsort/internal/sizeclass"
	"wfsort/internal/wire"
)

// KeyReader delivers a key stream: ReadKeys fills buf with the next
// keys and returns how many, with io.EOF after the last key (alone or
// alongside the final batch). wire.Reader satisfies it.
type KeyReader interface {
	ReadKeys(buf []int64) (n int, err error)
}

// KeyWriter receives the sorted output in order, in bounded frames.
type KeyWriter interface {
	WriteKeys(keys []int64) error
}

// SliceReader adapts an in-memory slice to KeyReader.
type SliceReader struct {
	Keys []int64
	pos  int
}

func (r *SliceReader) ReadKeys(buf []int64) (int, error) {
	if r.pos >= len(r.Keys) {
		return 0, io.EOF
	}
	n := copy(buf, r.Keys[r.pos:])
	r.pos += n
	if r.pos == len(r.Keys) {
		return n, io.EOF
	}
	return n, nil
}

// SliceWriter collects the sorted output into Keys.
type SliceWriter struct {
	Keys []int64
}

func (w *SliceWriter) WriteKeys(keys []int64) error {
	w.Keys = append(w.Keys, keys...)
	return nil
}

// StreamConfig shapes one streaming sort; zero values take defaults.
type StreamConfig struct {
	// ChunkKeys is the in-memory sort unit (default 1<<16, clamped to
	// [sizeclass.MinClass, sizeclass.MaxClass] so every chunk fits a
	// pooled context). It is the memory knob: peak usage scales with
	// ChunkKeys, never with the input.
	ChunkKeys int
	// Depth bounds chunk sorts in flight (default 4); each runs on its
	// own resident team of the pool.
	Depth int
	// MergeBufKeys is the per-run frame size of the final merge
	// (default 4096).
	MergeBufKeys int
	// SpillDir is where the spill file lives (default os.TempDir()).
	SpillDir string
	// Pool supplies the sorting machinery. nil builds a private pool
	// from Options for the duration of the call; non-nil reuses a
	// shared pool (its configuration wins) and Options must be empty.
	Pool *Pool
	// Options configures the private pool when Pool is nil — same
	// options as NewPool.
	Options []Option
}

func (c *StreamConfig) fill() error {
	if c.ChunkKeys == 0 {
		c.ChunkKeys = 1 << 16
	}
	if c.ChunkKeys < sizeclass.MinClass {
		c.ChunkKeys = sizeclass.MinClass
	}
	if c.ChunkKeys > sizeclass.MaxClass {
		c.ChunkKeys = sizeclass.MaxClass
	}
	if c.Depth == 0 {
		c.Depth = 4
	}
	if c.Depth < 1 {
		c.Depth = 1
	}
	if c.MergeBufKeys < 1 {
		c.MergeBufKeys = 4096
	}
	if c.Pool != nil && len(c.Options) > 0 {
		return fmt.Errorf("wfsort: StreamConfig.Pool conflicts with Options; the pool fixes the configuration")
	}
	return nil
}

// StreamStats reports one streaming sort.
type StreamStats struct {
	// Keys is the total sorted.
	Keys int64
	// Chunks is how many sorted runs the input split into.
	Chunks int
	// Spilled is true when runs went through the spill file (false for
	// the single-chunk fast path).
	Spilled bool
	// Sum and Xor are the output ledger, verified against the input
	// fold before SortStream returns — callers can chain the check
	// against their own upstream ledger.
	Sum, Xor int64
}

// spillRun records one sorted chunk's block inside the spill file.
type spillRun struct {
	off  int64
	keys int
}

// SortStream sorts the src key stream into dst with memory bounded by
// the chunk size (see StreamConfig). The sort is not stable across
// equal keys from different chunks — int64 keys carry no identity, so
// the output bytes are deterministic regardless. On error dst may have
// received a prefix; nothing else leaks (the spill file is always
// removed). Cancelling ctx aborts in-flight chunk sorts and returns
// ctx.Err().
func SortStream(ctx context.Context, dst KeyWriter, src KeyReader, cfg StreamConfig) (StreamStats, error) {
	var st StreamStats
	if err := cfg.fill(); err != nil {
		return st, err
	}
	p := cfg.Pool
	if p == nil {
		var err error
		p, err = NewPool(cfg.Options...)
		if err != nil {
			return st, err
		}
		defer p.Close()
	}
	sorter, err := NewKeyedSorter(Int64Key, WithPool(p))
	if err != nil {
		return st, err
	}

	// Stage 1: read chunks and sort them concurrently, Depth in flight.
	// Chunk buffers are recycled through a pool sized by the in-flight
	// bound, so stage-1 memory is Depth+1 chunks no matter how many
	// chunks the input yields. Sorted chunks spill in completion order;
	// the runs index keeps enough to merge them back deterministically.
	type sortedChunk struct {
		buf *[]int64
		n   int
		err error
	}
	bufPool := sync.Pool{New: func() any {
		b := make([]int64, cfg.ChunkKeys)
		return &b
	}}
	var (
		inSum, inXor int64
		runs         []spillRun
		spill        *os.File
		spillOff     int64
		sem          = make(chan struct{}, cfg.Depth)
		results      = make(chan *sortedChunk, cfg.Depth)
		pending      int
		readErr      error
	)
	defer func() {
		if spill != nil {
			name := spill.Name()
			spill.Close()
			os.Remove(name)
		}
	}()

	// drain collects one finished chunk and spills it. Runs on the
	// caller's goroutine so file writes are single-threaded.
	drain := func() error {
		sc := <-results
		pending--
		defer bufPool.Put(sc.buf)
		if sc.err != nil {
			return sc.err
		}
		sorted := (*sc.buf)[:sc.n]
		if spill == nil {
			f, err := os.CreateTemp(cfg.SpillDir, "wfsort-spill-*")
			if err != nil {
				return err
			}
			spill = f
		}
		if err := wire.WriteBlock(spill, wire.KindChunk, sorted); err != nil {
			return err
		}
		runs = append(runs, spillRun{off: spillOff, keys: sc.n})
		spillOff += int64(wire.BlockLen(sc.n))
		return nil
	}

	submit := func(buf *[]int64, n int) {
		pending++
		go func() {
			chunk := (*buf)[:n]
			err := sorter.SortContext(ctx, chunk)
			results <- &sortedChunk{buf: buf, n: n, err: err}
			<-sem
		}()
	}

	// fail waits out the remaining in-flight chunks before returning
	// the first error, so no goroutine outlives the call still holding
	// a chunk buffer or the spill file.
	fail := func(err error) error {
		for pending > 0 {
			<-results
			pending--
		}
		return err
	}

	// Read loop: fill a chunk, hand it to a sort slot, drain results
	// whenever all slots are busy.
	for {
		buf := bufPool.Get().(*[]int64)
		chunk := (*buf)[:cfg.ChunkKeys]
		filled := 0
		for filled < len(chunk) && readErr == nil {
			var n int
			n, readErr = src.ReadKeys(chunk[filled:])
			filled += n
			if readErr != nil && readErr != io.EOF {
				bufPool.Put(buf)
				return st, fail(fmt.Errorf("wfsort: stream read: %w", readErr))
			}
		}
		if filled == 0 {
			bufPool.Put(buf)
			break
		}
		s, x := wire.Fold(chunk[:filled])
		inSum += s
		inXor ^= x
		st.Keys += int64(filled)
		st.Chunks++

		if st.Chunks == 1 && readErr == io.EOF {
			// Single-chunk fast path: sort and write directly, no spill.
			sorted := (*buf)[:filled]
			if err := sorter.SortContext(ctx, sorted); err != nil {
				return st, err
			}
			if err := writeFrames(dst, sorted, cfg.MergeBufKeys); err != nil {
				return st, err
			}
			bufPool.Put(buf)
			st.Sum, st.Xor = inSum, inXor
			return st, nil
		}

		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			bufPool.Put(buf)
			// Let in-flight chunk sorts unwind before the spill file defer
			// removes their destination.
			return st, fail(ctx.Err())
		}
		submit(buf, filled)
		// Opportunistically drain without blocking the reader.
		for len(results) > 0 {
			if err := drain(); err != nil {
				return st, fail(err)
			}
		}
		if readErr == io.EOF {
			break
		}
	}
	for pending > 0 {
		if err := drain(); err != nil {
			return st, fail(err)
		}
	}
	st.Sum, st.Xor = inSum, inXor
	if st.Keys == 0 {
		return st, nil
	}
	st.Spilled = true

	// Stage 2: k-way merge the spilled runs. Each run reads through its
	// own SectionReader + wire.Reader, which re-verifies that block's
	// ledger as it streams; the output fold is the final cross-check
	// against everything stage 1 read.
	srcs := make([]merge.Source, len(runs))
	for i, r := range runs {
		srcs[i] = &spillSource{
			d:   wire.NewReader(io.NewSectionReader(spill, r.off, int64(wire.BlockLen(r.keys)))),
			max: r.keys,
		}
	}
	var outSum, outXor int64
	var outKeys int64
	err = merge.Streams(func(keys []int64) error {
		s, x := wire.Fold(keys)
		outSum += s
		outXor ^= x
		outKeys += int64(len(keys))
		return dst.WriteKeys(keys)
	}, srcs, cfg.MergeBufKeys)
	if err != nil {
		return st, fmt.Errorf("wfsort: stream merge: %w", err)
	}
	if outKeys != st.Keys || outSum != inSum || outXor != inXor {
		return st, fmt.Errorf("wfsort: stream ledger mismatch: read %d keys (sum=%d xor=%d), merged %d (sum=%d xor=%d)",
			st.Keys, inSum, inXor, outKeys, outSum, outXor)
	}
	return st, nil
}

// spillSource adapts one spilled block to merge.Source, reading its
// header lazily on first use.
type spillSource struct {
	d      *wire.Reader
	max    int
	headed bool
}

func (s *spillSource) ReadKeys(buf []int64) (int, error) {
	if !s.headed {
		h, err := s.d.Header(s.max)
		if err != nil {
			return 0, err
		}
		if h.Kind != wire.KindChunk || h.N != s.max {
			return 0, fmt.Errorf("wfsort: spill block corrupted: kind=%d n=%d want n=%d", h.Kind, h.N, s.max)
		}
		s.headed = true
	}
	return s.d.ReadKeys(buf)
}

// writeFrames delivers keys to dst in frames of at most frameKeys, so
// the fast path honors the same bounded-frame contract as the merge.
func writeFrames(dst KeyWriter, keys []int64, frameKeys int) error {
	for off := 0; off < len(keys); off += frameKeys {
		end := off + frameKeys
		if end > len(keys) {
			end = len(keys)
		}
		if err := dst.WriteKeys(keys[off:end]); err != nil {
			return err
		}
	}
	return nil
}
