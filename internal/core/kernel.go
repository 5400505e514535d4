package core

import (
	"math"
	"math/bits"
	"sync/atomic"

	"wfsort/internal/engine"
	"wfsort/internal/model"
	"wfsort/internal/wat"
)

// Kernel is the block-leaf hybrid sort, the native runtime's default.
// On hardware the pivot tree spends most of a sort in phase 1, where
// every insertion is a chain of dependent shared-memory loads and
// CASes. The kernel keeps the paper's wait-freedom machinery — work
// handed out by work-assignment trees (Fig. 1) to idempotent jobs under
// the skeleton of Fig. 2 — and gives each job a cache-friendly body:
//
//	1:build — the ids are cut into fixed blocks that a WAT hands out;
//	          a worker sorts its block in private scratch with Proc.Less
//	          and publishes the sorted run into the shared run region.
//	3:place — ceil(log2(blocks)) rounds merge runs pairwise. Each round
//	          claims output segments through its own WAT, finds where a
//	          segment's inputs start by merge-path search, and merges from
//	          the previous round's region into its own; the last round
//	          writes every element's 1-based rank into place[id].
//
// Every store a job makes is a deterministic value, so a job run twice
// — by a stalled claimant and the peer that took over, or by a respawned
// worker — rewrites what is already there. Each round owns a fresh
// region: a straggler still merging round r reads round r-1's region,
// which nothing writes again. DESIGN §17 gives the whole argument.
//
// The kernel is the only sort native code runs (see internal/layout).
// The paper's pivot tree runs only in the simulator, where its step
// counts and contention are measured exactly; the chaos differentials
// check both runtimes against an independent stable sort.
type Kernel struct {
	n     int
	block int // ids per leaf block: even, so half-block segments tile every merge pair
	seg   int // output positions per merge job

	build *wat.WAT   // assigns leaf blocks
	merge []*wat.WAT // merge[r] assigns round r+1's output segments
	// runs[r] holds round r's runs as element ids by position; runs[0]
	// is phase 1's output. The last round writes place instead.
	runs  []model.Region
	place model.Region // place.At(id) is element id's rank

	slots []leafSlot
	graph *engine.Graph
}

const (
	// minBlock is the smallest leaf block; below it a block's sort is
	// too short to pay for its claim and publication.
	minBlock = 256
	// pollEvery bounds a worker's local work between shared-memory
	// operations: a leaf sort idles once per pollEvery comparisons, so
	// kills and aborts take effect in the middle of a block.
	pollEvery = 4096
	// insertionRun is the run length a leaf sort insertion-sorts before
	// merging.
	insertionRun = 8
)

// leafSlot is one worker id's leaf scratch, claimed per run by CAS.
type leafSlot struct {
	busy atomic.Bool
	buf  []int32
}

// NewKernel lays out the kernel for n >= 1 elements sorted by up to
// workers goroutines. The shape follows from n and workers alone: the
// block count is the next power of two at or above 2·workers, with at
// least minBlock ids per block, and a merge segment is half a block.
// The arena holds one run region per round plus the rank table. Leaf
// scratch for every worker id is allocated here, so a pooled kernel
// sorts without allocating.
func NewKernel(a model.Allocator, n, workers int) *Kernel {
	if n < 1 || n > math.MaxInt32 {
		panic("core: kernel needs 1 <= n <= MaxInt32")
	}
	workers = max(workers, 1)
	block := max(minBlock, ceilDiv(n, 1<<bits.Len(uint(2*workers-1))))
	block += block & 1
	blocks := ceilDiv(n, block)
	rounds := max(1, bits.Len(uint(blocks-1)))
	k := &Kernel{n: n, block: block, seg: block / 2}
	k.build = wat.NewNamed(a, "wat.leaf", blocks)
	for r := 0; r < rounds; r++ {
		k.merge = append(k.merge, wat.NewNamed(a, "wat.merge", ceilDiv(n, k.seg)))
		k.runs = append(k.runs, a.Named("run", n))
	}
	k.place = a.Named("place", n+1)
	k.slots = make([]leafSlot, workers)
	for i := range k.slots {
		k.slots[i].buf = make([]int32, 2*min(block, n))
	}
	k.buildGraph()
	return k
}

// Seed initializes the work-assignment trees' padding.
func (k *Kernel) Seed(mem []Word) {
	k.build.Seed(mem)
	for _, w := range k.merge {
		w.Seed(mem)
	}
}

// Program returns the kernel as a model.Program.
func (k *Kernel) Program() model.Program { return k.graph.Program() }

// Graph returns the kernel's phase graph. Its labels are the pivot
// tree's "1:build" and "3:place", so per-phase timings keep their names.
func (k *Kernel) Graph() *engine.Graph { return k.graph }

func (k *Kernel) buildGraph() {
	last := k.merge[len(k.merge)-1]
	k.graph = engine.New("kernel").
		Add(engine.Phase{
			Name: "1:build",
			Body: func(p model.Proc, _ any) { k.sortBlocks(p) },
			Done: func(mem []Word) bool { return model.Doneish(mem[k.build.NodeAddr(1)]) },
		}).
		Add(engine.Phase{
			Name: "3:place",
			Body: func(p model.Proc, _ any) {
				for r := range k.merge {
					claim(p, k.merge[r], func(j int) { k.mergeSegment(p, r+1, j) })
				}
			},
			Done: func(mem []Word) bool { return model.Doneish(mem[last.NodeAddr(1)]) },
		})
}

// claim runs w's jobs under the Fig. 2 skeleton, skipping any job whose
// leaf is already marked done. wat.Run starts every worker at its own
// leaf without looking; a late or respawned worker's starting leaf is
// usually finished, and one read saves redoing it.
func claim(p model.Proc, w *wat.WAT, job func(j int)) {
	w.Run(p, func(j int) {
		if p.Read(w.NodeAddr(w.LeafNode(j))) != model.Done {
			job(j)
		}
	})
}

// sortBlocks is phase 1: claim blocks, sort each privately, publish.
func (k *Kernel) sortBlocks(p model.Proc) {
	var buf []int32
	// Two live goroutines can share a worker id — a respawn may revive
	// the id before its old goroutine sees its kill — so the slot is
	// claimed by CAS and the loser sorts in a private buffer.
	if pid := p.ID(); pid < len(k.slots) && k.slots[pid].busy.CompareAndSwap(false, true) {
		defer k.slots[pid].busy.Store(false)
		buf = k.slots[pid].buf
	} else {
		buf = make([]int32, 2*min(k.block, k.n))
	}
	l := leaf{p: p}
	claim(p, k.build, func(j int) {
		lo := j * k.block
		m := min(k.block, k.n-lo)
		ids := buf[:m]
		for i := range ids {
			ids[i] = int32(lo + i + 1)
		}
		for i, id := range l.sort(ids, buf[m:2*m]) {
			p.Write(k.runs[0].At(lo+i), Word(id))
		}
	})
}

// mergeSegment is merge job j of round r (1-based): the output
// positions [j·seg, (j+1)·seg) of merging runs[r-1]'s runs pairwise,
// written to runs[r], or as ranks into place on the last round. seg
// divides every pair's width, so a segment never straddles two pairs.
func (k *Kernel) mergeSegment(p model.Proc, r, j int) {
	src := k.runs[r-1]
	width := k.block << (r - 1)
	start := j * k.seg
	end := min(start+k.seg, k.n)
	base := start - start%(2*width)
	// The pair is A = src[base, base+la) and B = src[base+la, base+la+lb).
	la := min(width, k.n-base)
	lb := min(width, k.n-base-la)
	at := func(i int) int { return int(p.Read(src.At(base + i))) }

	// Merge path: i is how many of the pair's first d outputs come from A.
	d := start - base
	lo, hi := max(0, d-lb), min(d, la)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.Less(at(mid), at(la+d-mid-1)) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i, jb := lo, d-lo
	var a, b int
	if i < la {
		a = at(i)
	}
	if jb < lb {
		b = at(la + jb)
	}
	final := r == len(k.merge)
	for o := start; o < end; o++ {
		var v int
		if jb >= lb || (i < la && p.Less(a, b)) {
			v = a
			if i++; i < la && o+1 < end {
				a = at(i)
			}
		} else {
			v = b
			if jb++; jb < lb && o+1 < end {
				b = at(la + jb)
			}
		}
		if final {
			p.Write(k.place.At(v), Word(o+1))
		} else {
			p.Write(k.runs[r].At(o), Word(v))
		}
	}
}

// leaf sorts one block of element ids in private scratch.
type leaf struct {
	p     model.Proc
	comps int
}

// less compares two ids through Proc.Less, idling the processor once
// per pollEvery comparisons.
func (l *leaf) less(a, b int32) bool {
	l.comps++
	if l.comps == pollEvery {
		l.comps = 0
		l.p.Idle()
	}
	return l.p.Less(int(a), int(b))
}

// sort sorts a using b (same length) as merge scratch and returns
// whichever of the two holds the result: insertion-sorted runs, then
// bottom-up merge passes that alternate between the buffers.
func (l *leaf) sort(a, b []int32) []int32 {
	n := len(a)
	for lo := 0; lo < n; lo += insertionRun {
		hi := min(lo+insertionRun, n)
		for i := lo + 1; i < hi; i++ {
			v, j := a[i], i
			for j > lo && l.less(v, a[j-1]) {
				a[j] = a[j-1]
				j--
			}
			a[j] = v
		}
	}
	for w := insertionRun; w < n; w *= 2 {
		for lo := 0; lo < n; lo += 2 * w {
			mid, hi := min(lo+w, n), min(lo+2*w, n)
			l.merge(b[lo:hi], a[lo:mid], a[mid:hi])
		}
		a, b = b, a
	}
	return a
}

// merge merges the sorted runs x and y into dst. Runs already in order
// (common on nearly sorted input) cost one comparison.
func (l *leaf) merge(dst, x, y []int32) {
	if len(y) == 0 || l.less(x[len(x)-1], y[0]) {
		copy(dst[copy(dst, x):], y)
		return
	}
	i, j, o := 0, 0, 0
	for i < len(x) && j < len(y) {
		if l.less(y[j], x[i]) {
			dst[o] = y[j]
			j++
		} else {
			dst[o] = x[i]
			i++
		}
		o++
	}
	copy(dst[o+copy(dst[o:], x[i:]):], y[j:])
}

// Places extracts every element's 1-based rank after a run.
func (k *Kernel) Places(mem []Word) []int {
	ranks := make([]int, k.n)
	k.PlacesInto(mem, ranks)
	return ranks
}

// PlacesInto fills dst[i-1] with element i's rank for the first
// min(n, len(dst)) elements, without allocating.
func (k *Kernel) PlacesInto(mem []Word, dst []int) {
	for i := 1; i <= min(k.n, len(dst)); i++ {
		dst[i-1] = int(mem[k.place.At(i)])
	}
}

// Progress reports, host-side after a run, how many ids phase 1 has
// published and how many ranks phase 3 has installed; both equal N
// after a completed run.
func (k *Kernel) Progress(mem []Word) (published, placed int) {
	return k.progressScan(mem, plainLoad)
}

// LiveProgress is Progress with atomic loads, for polling a run in
// flight.
func (k *Kernel) LiveProgress(mem []Word) (published, placed int) {
	return k.progressScan(mem, atomicLoad)
}

func (k *Kernel) progressScan(mem []Word, load func(*Word) Word) (published, placed int) {
	for i := 0; i < k.n; i++ {
		if load(&mem[k.runs[0].At(i)]) != model.Empty {
			published++
		}
		if load(&mem[k.place.At(i+1)]) != model.Empty {
			placed++
		}
	}
	return published, placed
}

func plainLoad(w *Word) Word  { return *w }
func atomicLoad(w *Word) Word { return atomic.LoadInt64(w) }
