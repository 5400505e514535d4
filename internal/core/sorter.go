// Package core implements the paper's primary contribution: the
// wait-free sorting algorithm of Section 2. Sorting an input of N
// elements with P <= N processors proceeds in three phases (plus the
// output shuffle), each individually wait-free:
//
//	phase 1 — build_tree (Fig. 4): every element is installed into a
//	          Quicksort pivot tree by compare-and-swap; work is handed
//	          out by a Work Assignment Tree (Fig. 1/2) or by the
//	          randomized allocation of §2.3.
//	phase 2 — tree_sum (Fig. 5): subtree sizes, computed by all
//	          processors descending from the root, spread by the bits
//	          of their processor ids, pruning at nodes whose size is
//	          already known (bottom-up completion, so pruning is safe
//	          even if the computing processor crashed).
//	phase 3 — find_place (Fig. 6): each node's rank is derived from its
//	          parent's rank and its small-subtree size.
//	shuffle — the ranks are a permutation; a write-all pass moves
//	          element ids to their final positions.
//
// On a faultless synchronous PRAM the whole sort takes
// O(N log N / P) time w.h.p. for random inputs (Lemmas 2.7, 2.8), and
// it completes correctly under arbitrary processor crashes and delays.
//
// # Deviation from Figure 6 (crash safety)
//
// As literally written, find_place returns immediately when it sees
// place > 0. The place field is set top-down *before* the setter
// recurses into the children, so a processor that crashes between the
// write and the recursion would strand its subtree: every later visitor
// prunes at the node and nobody places the children. (Figure 5 does not
// have this problem — size is written bottom-up, after the subtree is
// complete.) We therefore give phase 3 the same bottom-up structure: a
// placeDone flag written after both children's subtrees are placed, and
// pruning happens on placeDone rather than on place. Work, time and
// contention bounds are unchanged (one extra word and O(1) extra
// operations per node); the low-contention phase 3 of §3.3 uses
// bottom-up DONE marks in exactly this way, so this is the paper's own
// repair applied to the deterministic variant.
//
// The package also holds Kernel (kernel.go), the block-leaf sort native
// code runs in place of the pivot tree; the pivot tree itself runs only
// in the simulator.
package core

import (
	"math/bits"

	"wfsort/internal/engine"
	"wfsort/internal/model"
	"wfsort/internal/wat"
)

// Word aliases the shared-memory word type.
type Word = model.Word

// Side constants follow Figure 3: BIG = 0, SMALL = 1.
const (
	Big   = 0
	Small = 1
)

// Alloc selects the phase-1 work-allocation strategy.
type Alloc int

// Work allocation strategies for phase 1.
const (
	// AllocWAT assigns elements via next_element from evenly spaced
	// leaves (Fig. 2). With inputs in random order the pivot tree is
	// O(log N) deep w.h.p. (Lemma 2.8).
	AllocWAT Alloc = iota
	// AllocRandomized first inserts uniformly random elements until it
	// sees log N consecutive already-done picks, then falls back to
	// next_element (§2.3 end). This makes the O(log N) tree depth hold
	// w.h.p. for *any* input order, including sorted inputs.
	AllocRandomized
)

// Sorter lays out and runs the wait-free sort for n elements. Element
// ids are 1..n; id 1 is the tree root (the first pivot, Fig. 4 line 5).
// The input keys never enter shared memory: ordering is consulted via
// Proc.Less.
type Sorter struct {
	n     int
	alloc Alloc

	// key.At(i) stands in for element i's key field: build_tree reads
	// it (one shared-memory operation, as in Fig. 4 line 8) before
	// comparing via Less. Keys themselves stay host-side; the cell read
	// exists so operation counts and — crucially — memory contention
	// match the paper's accounting, where all processors reading the
	// root pivot's key contend on one word.
	key model.Region
	// child[side].At(i) is element i's BIG/SMALL child pointer (Fig. 3).
	child [2]model.Region
	// size.At(i) is the size of the subtree rooted at i (phase 2).
	size model.Region
	// place.At(i) is element i's final 1-based rank (phase 3).
	place model.Region
	// placeDone.At(i) marks that i's whole subtree has been placed.
	placeDone model.Region
	// out.At(r) receives the element id of rank r+1 (shuffle).
	out model.Region

	// build assigns phase-1 insertions (elements 2..n → jobs 0..n-2).
	build *wat.WAT
	// shuffle assigns output writes (elements 1..n → jobs 0..n-1).
	shuffle *wat.WAT

	// graph is the declared phase sequence (1:build → 2:sum → 3:place →
	// 4:shuffle) that Sort executes through the engine scheduler. Nil for
	// bare tables (NewTable), which carry no work-assignment machinery.
	graph *engine.Graph
}

// NewSorter reserves the sort's shared state for n >= 1 elements in the
// arena. Call Seed on the runtime's memory before running.
func NewSorter(a model.Allocator, n int, alloc Alloc) *Sorter {
	return NewSorterNamed(a, n, alloc, "")
}

// NewSorterNamed is NewSorter with a label prefix for contention
// profiles (the §3 sort distinguishes group tables from the global
// one this way).
func NewSorterNamed(a model.Allocator, n int, alloc Alloc, prefix string) *Sorter {
	s := NewTableNamed(a, n, prefix)
	s.alloc = alloc
	s.shuffle = wat.NewNamed(a, prefix+"wat.shuffle", n)
	if n > 1 {
		s.build = wat.NewNamed(a, prefix+"wat.build", n-1)
	}
	s.buildGraph()
	return s
}

// NewTable reserves only the element table (keys, children, sizes,
// places, output) without the work-assignment trees. The low-contention
// sort of §3 drives the table with its own allocation machinery; tables
// support BuildTreeFrom, TreeSumFrom and FindPlaceFrom but not Sort.
func NewTable(a model.Allocator, n int) *Sorter {
	return NewTableNamed(a, n, "")
}

// NewTableNamed is NewTable with a label prefix for contention
// profiles.
func NewTableNamed(a model.Allocator, n int, prefix string) *Sorter {
	if n < 1 {
		panic("core: sorter needs n >= 1")
	}
	s := &Sorter{
		n:         n,
		key:       a.Named(prefix+"key", n+1),
		size:      a.Named(prefix+"size", n+1),
		place:     a.Named(prefix+"place", n+1),
		placeDone: a.Named(prefix+"placedone", n+1),
		out:       a.Named(prefix+"out", n),
	}
	s.child[Big] = a.Named(prefix+"child.big", n+1)
	s.child[Small] = a.Named(prefix+"child.small", n+1)
	return s
}

// N returns the input size.
func (s *Sorter) N() int { return s.n }

// Seed initializes work-assignment padding in the runtime's memory.
func (s *Sorter) Seed(mem []Word) {
	if s.build != nil {
		s.build.Seed(mem)
	}
	if s.shuffle != nil {
		s.shuffle.Seed(mem)
	}
}

// Program returns the full wait-free sort as a model.Program. Every
// processor runs all phases; phase transitions are individually gated
// (a processor leaves phase 1 only when the whole pivot tree is built,
// leaves phase 2 only having verified the root's size, and so on), so
// no barriers and no fault-free assumptions are needed.
func (s *Sorter) Program() model.Program {
	return func(p model.Proc) {
		s.Sort(p)
	}
}

// Sort runs all phases on the calling processor by executing the
// declared phase graph.
func (s *Sorter) Sort(p model.Proc) {
	if s.graph == nil {
		panic("core: Sort requires a sorter from NewSorter, not NewTable")
	}
	s.graph.Run(p)
}

// Graph returns the sorter's declared phase graph, or nil for bare
// tables. The resident team runs it with per-phase notifications, and
// the certification harness introspects it.
func (s *Sorter) Graph() *engine.Graph { return s.graph }

// buildGraph declares the §2 sort as an engine phase graph. The phase
// sequence, labels and bodies reproduce the seed's inline orchestration
// operation-for-operation (the simulator goldens pin this down); the
// graph additionally carries host-side completion predicates for the
// certifier.
func (s *Sorter) buildGraph() {
	g := engine.New("core")
	if s.n > 1 {
		g.Add(engine.Phase{
			Name: "1:build",
			Body: func(p model.Proc, _ any) { s.BuildPhase(p) },
			// The deterministic completion sweep drives next_element to
			// NoWork, which requires the build WAT's root mark — so a
			// doneish root certifies every insertion, even when the
			// randomized allocation bailed out early on its miss counter.
			Done: func(mem []Word) bool { return model.Doneish(mem[leafAddr(s.build, 1)]) },
		})
		g.Add(engine.Phase{
			Name: "2:sum",
			Body: func(p model.Proc, _ any) { s.treeSum(p, 1, 0) },
			Done: func(mem []Word) bool { sized, _ := s.Progress(mem); return sized == s.n },
		})
		g.Add(engine.Phase{
			Name: "3:place",
			Body: func(p model.Proc, _ any) { s.findPlace(p, 1, 0, 0) },
			Done: func(mem []Word) bool { _, placed := s.Progress(mem); return placed == s.n },
		})
	} else {
		g.Add(engine.Phase{
			Name: "2:sum",
			Body: func(p model.Proc, _ any) { p.Write(s.size.At(1), 1) },
			Done: func(mem []Word) bool { sized, _ := s.Progress(mem); return sized == s.n },
		})
		g.Add(engine.Phase{
			Name: "3:place",
			Body: func(p model.Proc, _ any) { p.Write(s.place.At(1), 1) },
			Done: func(mem []Word) bool { _, placed := s.Progress(mem); return placed == s.n },
		})
	}
	g.Add(engine.Phase{
		Name: "4:shuffle",
		Body: func(p model.Proc, _ any) {
			s.shuffle.Run(p, func(j int) {
				elem := j + 1
				r := p.Read(s.place.At(elem))
				p.Write(s.out.At(int(r)-1), Word(elem))
			})
		},
		Done: func(mem []Word) bool {
			for r := 0; r < s.n; r++ {
				if mem[s.out.At(r)] == model.Empty {
					return false
				}
			}
			return true
		},
	})
	s.graph = g
}

// BuildPhase runs only phase 1 (tree construction) under the sorter's
// configured allocation — exposed so experiments can measure the phase
// in isolation.
func (s *Sorter) BuildPhase(p model.Proc) {
	if s.n <= 1 {
		return
	}
	switch s.alloc {
	case AllocRandomized:
		s.buildPhaseRandomized(p)
	default:
		s.buildPhaseWAT(p)
	}
}

// TreeIsSortedBST verifies, host-side after a run, that the pivot tree
// rooted at element 1 contains all n elements exactly once and that an
// in-order traversal enumerates them in increasing key order
// (Lemma 2.5).
func (s *Sorter) TreeIsSortedBST(mem []Word, less func(i, j int) bool) bool {
	return s.TreeIsSortedBSTFrom(mem, 1, less)
}

// TreeIsSortedBSTFrom is TreeIsSortedBST for a tree rooted at an
// arbitrary element (the §3 sort's root is a winner sample).
func (s *Sorter) TreeIsSortedBSTFrom(mem []Word, root int, less func(i, j int) bool) bool {
	order := make([]int, 0, s.n)
	var walk func(i int) bool
	walk = func(i int) bool {
		if i == 0 {
			return true
		}
		if i < 0 || i > s.n || len(order) > s.n {
			return false
		}
		if !walk(int(mem[s.child[Small].At(i)])) {
			return false
		}
		order = append(order, i)
		return walk(int(mem[s.child[Big].At(i)]))
	}
	if !walk(root) || len(order) != s.n {
		return false
	}
	for k := 1; k < len(order); k++ {
		if !less(order[k-1], order[k]) {
			return false
		}
	}
	return true
}

// buildPhaseWAT is phase 1 under deterministic WAT allocation (Fig. 2
// with build_tree as func). Build job j inserts element j+2: element 1
// is the root and needs no insertion.
func (s *Sorter) buildPhaseWAT(p model.Proc) {
	s.build.Run(p, func(j int) {
		s.BuildTree(p, j+2)
	})
}

// buildPhaseRandomized is phase 1 under the randomized allocation of
// §2.3: pick uniform random jobs and insert them, marking progress
// up the WAT, until log N consecutive picks were already done; then
// switch to next_element.
func (s *Sorter) buildPhaseRandomized(p model.Proc) {
	jobs := s.build.Jobs()
	logN := bits.Len(uint(jobs)) + 1
	rng := p.Rand()
	misses := 0
	last := s.build.LeafNode(rng.Intn(jobs))
	for misses < logN {
		j := rng.Intn(jobs)
		leaf := s.build.LeafNode(j)
		last = leaf
		if p.Read(leafAddr(s.build, leaf)) == model.Done {
			misses++
			continue
		}
		misses = 0
		s.BuildTree(p, j+2)
		s.markClimb(p, leaf)
	}
	// Deterministic completion from the last (done) leaf.
	i := last
	for i != wat.NoWork {
		if j := s.build.JobOf(i); j >= 0 {
			s.BuildTree(p, j+2)
		}
		i = s.build.NextElement(p, i)
	}
}

// markClimb performs lines 3–12 of next_element (Fig. 1): mark the leaf
// DONE and propagate DONE upward while sibling subtrees are complete,
// without claiming new work.
func (s *Sorter) markClimb(p model.Proc, i int) {
	p.Write(leafAddr(s.build, i), model.Done)
	for i != 1 {
		sib := i ^ 1
		if p.Read(leafAddr(s.build, sib)) != model.Done {
			return
		}
		i /= 2
		p.Write(leafAddr(s.build, i), model.Done)
	}
}

// BuildTree is build_tree of Figure 4: install element i into the pivot
// tree rooted at element 1. It is wait-free and loops at most N−1 times
// (Lemma 2.4); concurrent calls with the same i follow the same path
// and are harmless.
func (s *Sorter) BuildTree(p model.Proc, i int) {
	if i == 1 {
		return
	}
	s.BuildTreeFrom(p, i, 1)
}

// BuildTreeFrom runs the build_tree descent loop starting from an
// arbitrary ancestor already known to subsume element i (the §3.2 glue
// phase enters here after descending the fat tree).
//
// One optimization over the literal Figure 4: the child pointer is
// read before attempting the compare-and-swap ("test-then-CAS"), so a
// CAS is issued only when the slot was just observed EMPTY. The
// paper's facts 1–6 are untouched (the read in the descent still never
// observes EMPTY after a failed install, and insertion attempts still
// follow the unique path for i), per-level cost is still O(1), and on
// real hardware a failed CAS now *means* a lost race — which is what
// experiment E18 measures as the native contention signal.
func (s *Sorter) BuildTreeFrom(p model.Proc, i, parent int) {
	for {
		// Fig. 4 line 8: read the parent's key, then compare. The cell
		// exists purely so simulated op counts and contention match the
		// paper's accounting.
		p.Read(s.key.At(parent))
		side := Big
		if p.Less(i, parent) {
			side = Small
		}
		a := s.child[side].At(parent)
		v := p.Read(a)
		if v == model.Empty {
			if p.CAS(a, model.Empty, Word(i)) {
				return
			}
			v = p.Read(a)
		}
		if v == Word(i) {
			// Another processor installed our element (same path,
			// Fig. 4 facts 1–6).
			return
		}
		parent = int(v)
	}
}

// TreeSumFrom runs phase 2 from an arbitrary root element (used by the
// §3 variant and its deterministic fallback) and returns its subtree
// size.
func (s *Sorter) TreeSumFrom(p model.Proc, root int) Word {
	return s.treeSum(p, root, 0)
}

// FindPlaceFrom runs phase 3 from an arbitrary root element whose
// subtree spans ranks sub+1..sub+size.
func (s *Sorter) FindPlaceFrom(p model.Proc, root int, sub Word) {
	s.findPlace(p, root, sub, 0)
}

// treeSum is tree_sum of Figure 5: return the size of the subtree
// rooted at element i, computing and caching it if unknown. Processors
// spread over the tree by their id bits. Pruning on size > 0 is crash
// safe because size is written only after the whole subtree is summed.
func (s *Sorter) treeSum(p model.Proc, i, d int) Word {
	if i == 0 {
		return 0
	}
	if sz := p.Read(s.size.At(i)); sz > 0 {
		return sz
	}
	first, second := Small, Big
	if pidBit(p.ID(), d) == Big {
		first, second = Big, Small
	}
	sum := s.treeSum(p, int(p.Read(s.child[first].At(i))), d+1)
	sum += s.treeSum(p, int(p.Read(s.child[second].At(i))), d+1)
	p.Write(s.size.At(i), sum+1)
	return sum + 1
}

// findPlace is find_place of Figure 6 with the bottom-up placeDone
// completion marker (see the package comment). sub is the number of
// elements smaller than i's entire subtree.
func (s *Sorter) findPlace(p model.Proc, i int, sub Word, d int) {
	if i == 0 {
		return
	}
	if p.Read(s.placeDone.At(i)) != model.Empty {
		return
	}
	small := int(p.Read(s.child[Small].At(i)))
	big := int(p.Read(s.child[Big].At(i)))
	sm := model.SmallSubtreeSize(p, Word(small), s.size.At)
	p.Write(s.place.At(i), sm+sub+1)
	if pidBit(p.ID(), d) == Small {
		s.findPlace(p, small, sub, d+1)
		s.findPlace(p, big, sub+sm+1, d+1)
	} else {
		s.findPlace(p, big, sub+sm+1, d+1)
		s.findPlace(p, small, sub, d+1)
	}
	p.Write(s.placeDone.At(i), model.Done)
}

// Places extracts the 1-based rank of every element after a run:
// Places(mem)[i-1] is element i's position in sorted order.
func (s *Sorter) Places(mem []Word) []int {
	ranks := make([]int, s.n)
	for i := range ranks {
		ranks[i] = int(mem[s.place.At(i+1)])
	}
	return ranks
}

// Progress reports, host-side, how far a run got through phases 2 and
// 3: the number of elements whose subtree size is installed and the
// number whose rank is installed. After any completed run — faultless
// or not — both equal N; a partial count is the forensic trail of a run
// that lost every processor.
func (s *Sorter) Progress(mem []Word) (sized, placed int) {
	for i := 1; i <= s.n; i++ {
		if mem[s.size.At(i)] != model.Empty {
			sized++
		}
		if mem[s.place.At(i)] != model.Empty {
			placed++
		}
	}
	return sized, placed
}

// Output extracts the shuffled result: Output(mem)[r] is the element id
// with rank r+1.
func (s *Sorter) Output(mem []Word) []int {
	ids := make([]int, s.n)
	for r := 0; r < s.n; r++ {
		ids[r] = int(mem[s.out.At(r)])
	}
	return ids
}

// Depth returns the depth of the built pivot tree (root = depth 1),
// measured host-side after a run; 0 for an empty tree. Experiment E12
// uses it to validate the O(log N) w.h.p. claim of Lemma 2.8.
func (s *Sorter) Depth(mem []Word) int {
	return s.depthFrom(mem, 1)
}

// DepthFrom returns the depth of the subtree rooted at element i,
// measured host-side after a run (the §3 sorter's root is a sample
// element rather than element 1).
func (s *Sorter) DepthFrom(mem []Word, i int) int {
	return s.depthFrom(mem, i)
}

func (s *Sorter) depthFrom(mem []Word, i int) int {
	if i == 0 {
		return 0
	}
	dS := s.depthFrom(mem, int(mem[s.child[Small].At(i)]))
	dB := s.depthFrom(mem, int(mem[s.child[Big].At(i)]))
	return 1 + max(dS, dB)
}

// Shared-memory address accessors, used by the §3 low-contention sort
// to drive the same element table with its own machinery.

// ChildAddr returns the address of element i's child pointer for side
// (Small or Big).
func (s *Sorter) ChildAddr(side, i int) int { return s.child[side].At(i) }

// KeyAddr returns the address of element i's key stand-in cell.
func (s *Sorter) KeyAddr(i int) int { return s.key.At(i) }

// SizeAddr returns the address of element i's subtree-size word.
func (s *Sorter) SizeAddr(i int) int { return s.size.At(i) }

// PlaceAddr returns the address of element i's rank word.
func (s *Sorter) PlaceAddr(i int) int { return s.place.At(i) }

// PlaceDoneAddr returns the address of element i's phase-3 completion
// mark.
func (s *Sorter) PlaceDoneAddr(i int) int { return s.placeDone.At(i) }

// PlaceDoneRegion returns the phase-3 completion-mark region itself.
// Callers that index the marks as a region (the §3.3 probing phases)
// must use this rather than reconstruct a region from PlaceDoneAddr(0):
// on padded arenas the region is not contiguous, so a synthesized dense
// region would disagree with the addresses the sorter itself uses.
func (s *Sorter) PlaceDoneRegion() model.Region { return s.placeDone }

// OutAddr returns the address of the rank-(r+1) output slot.
func (s *Sorter) OutAddr(r int) int { return s.out.At(r) }

// pidBit returns the bit that routes processor pid at depth d of the
// tree-sum / find-place traversals (Fig. 5/6 use "the d-th bit of
// PID"). For d < log2(P) this is the literal pid bit, exactly as the
// paper writes. Beyond that the pid runs out of bits — the paper
// assumes processors are alone by then, which holds for complete trees
// but not for the imbalanced subtrees of a random pivot tree, where
// whole groups of processors would then follow identical routes and
// duplicate each other's work (measured as Θ(N²) aggregate work at
// P = N). We therefore extend the bit sequence pseudo-randomly, mixing
// pid and d, so equal-prefix processors keep dividing the remaining
// work at every level. This only *extends* the paper's spreading idea
// to depths its analysis assumed unreachable.
func pidBit(pid, d int) int {
	if d < 62 && (pid>>uint(d)) != 0 {
		return (pid >> uint(d)) & 1
	}
	x := uint64(pid)*0x9e3779b97f4a7c15 + uint64(d)*0xbf58476d1ce4e5b9
	x ^= x >> 29
	x *= 0x94d049bb133111eb
	x ^= x >> 32
	return int(x & 1)
}

// leafAddr returns the shared-memory address of a WAT node.
func leafAddr(w *wat.WAT, node int) int { return w.NodeAddr(node) }

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }
