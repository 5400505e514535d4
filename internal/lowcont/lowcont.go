// Package lowcont implements the randomized, contention-reduced variant
// of the wait-free sort (Section 3 of the paper). The deterministic
// Section 2 algorithm suffers O(P) memory contention: at the start,
// every processor reads the root pivot's key and compare-and-swaps the
// root's child pointers. This variant reduces contention to O(sqrt(P))
// with high probability via four cooperating constructions:
//
//  1. Group split (§3.2): the P processors are divided into
//     G = floor(sqrt(P)) groups; group g sorts its own slice of the
//     input with the Section 2 algorithm. Root contention inside a
//     group is only O(sqrt(P)).
//  2. Winner selection (Fig. 9): the first group to finish is elected
//     through a binary tree that processors enter in randomized waves
//     (geometric coin-toss waits), giving O(log P) time and expected
//     O(log P) contention.
//  3. Fat tree + write-most (§3.2): sqrt(P) evenly spaced samples of
//     the winner's sorted slice become the top levels of the pivot
//     tree, each duplicated sqrt(P) times. Processors fill the
//     duplicates by writing log P uniformly random slots ("write
//     most"); readers that hit a still-empty duplicate fall back to
//     reading the winner's slice directly, which happens with
//     negligible probability.
//  4. Glue (§3.2 step 3): all N elements are inserted by the Fig. 4
//     loop, but the top log sqrt(P) comparison levels read random fat
//     duplicates, so no single word is read by more than about
//     P/sqrt(P) = sqrt(P) processors, and the CAS frontier below the
//     fat leaves splits the processors into groups of expected size
//     sqrt(P).
//
// Phases 2 and 3 (subtree sizes and ranks) then run in the
// low-contention style of §3.3: processors repeatedly probe uniformly
// random tree nodes and apply bounded local rules — sizes and DONE
// marks flow bottom-up, places and the final ALLDONE mark flow top-down
// — exactly the LC-WAT discipline of Figure 8. As in internal/lcwat, a
// processor that probes fruitlessly for Θ(log N) rounds falls back to
// one bounded deterministic pass so the implementation stays strictly
// wait-free under any schedule (the fallback fires with negligible
// probability in the synchronous executions the paper analyzes).
package lowcont

import (
	"fmt"
	"math"
	"math/bits"

	"wfsort/internal/core"
	"wfsort/internal/engine"
	"wfsort/internal/lcwat"
	"wfsort/internal/model"
)

// Word aliases the shared-memory word type.
type Word = model.Word

// waitUnit is the K constant of Fig. 9: the number of idle steps per
// wave of winner selection.
const waitUnit = 2

// group describes one processor group and its input slice.
type group struct {
	sorter   *core.Sorter // Section 2 sorter over the slice
	base     int          // slice covers global elements base+1..base+size
	size     int          // slice length
	firstPID int          // pids [firstPID, firstPID+procs) belong here
	procs    int
}

// Sorter runs the Section 3 sort for n elements on p processors.
// Requires 4 <= p <= n so that at least two groups form; callers with
// fewer processors should use the Section 2 sorter, whose contention
// is bounded by p anyway.
type Sorter struct {
	n, p       int
	groupCount int
	groups     []group

	winner    model.Region // winner-selection tree, heap of 2*winLeaves
	winLeaves int

	fat       model.Region // fatNodes * dup duplicate slots
	fatNodes  int          // F = 2^fatLevels − 1
	fatLevels int
	dup       int // duplicates per fat node (= G)

	table   *core.Sorter // global element table (no WATs)
	sumDone model.Region // phase-2 completion marks per element
	glue    *lcwat.Tree  // glue-phase work assignment (N jobs, §3.2 uses LC-WATs)
	shuf    *lcwat.Tree  // low-contention shuffle (N jobs)

	fillRounds    int
	fallbackAfter int

	// graph is the declared phase sequence (A:inner → … → G:shuffle)
	// that Sort executes through the engine scheduler.
	graph *engine.Graph
}

// New lays out the Section 3 sorter in the arena, one element per glue
// and shuffle job, the paper's accounting the simulator goldens pin.
func New(a model.Allocator, n, p int) *Sorter {
	if p < 4 {
		panic("lowcont: need at least 4 processors (use core below that)")
	}
	if n < p {
		panic(fmt.Sprintf("lowcont: need n >= p, got n=%d p=%d", n, p))
	}
	g := int(math.Sqrt(float64(p)))
	fatLevels := max(1, bits.Len(uint(g))-1)
	s := &Sorter{
		n:             n,
		p:             p,
		groupCount:    g,
		winLeaves:     ceilPow2(p),
		fatNodes:      1<<fatLevels - 1,
		fatLevels:     fatLevels,
		dup:           g,
		fillRounds:    bits.Len(uint(p)),
		fallbackAfter: 16 * (bits.Len(uint(n)) + 2),
	}
	s.groups = make([]group, g)
	for i := range s.groups {
		base := i * n / g
		size := (i+1)*n/g - base
		first := (i*p + g - 1) / g
		next := ((i+1)*p + g - 1) / g
		s.groups[i] = group{
			sorter:   core.NewSorterNamed(a, size, core.AllocRandomized, "grp."),
			base:     base,
			size:     size,
			firstPID: first,
			procs:    next - first,
		}
	}
	s.winner = a.Named("winner", 2*s.winLeaves)
	s.fat = a.Named("fat", s.fatNodes*s.dup)
	s.table = core.NewTableNamed(a, n, "glob.")
	s.sumDone = a.Named("glob.sumdone", n+1)
	s.glue = lcwat.NewNamed(a, "glue", n)
	s.shuf = lcwat.NewNamed(a, "shuffle", n)
	s.buildGraph()
	return s
}

// N returns the input size.
func (s *Sorter) N() int { return s.n }

// P returns the processor count the layout was built for.
func (s *Sorter) P() int { return s.p }

// Groups returns the number of processor groups (floor(sqrt(P))).
func (s *Sorter) Groups() int { return s.groupCount }

// FatNodes returns the number of distinct fat-tree pivots.
func (s *Sorter) FatNodes() int { return s.fatNodes }

// Dup returns the duplication factor of fat-tree pivots.
func (s *Sorter) Dup() int { return s.dup }

// WinnerRootAddr returns the shared-memory address of the
// winner-selection tree's root — the word every processor must
// eventually read or CAS. Experiment E15 hands it to the
// pram.HoldAddress adversary to realize the DHW Θ(P)-contention lower
// bound against this algorithm.
func (s *Sorter) WinnerRootAddr() int { return s.winner.At(1) }

// FatFilled counts, after a run, how many fat-tree duplicate slots the
// write-most phase actually filled (experiment E9 checks the w.h.p.
// claim that nearly all are).
func (s *Sorter) FatFilled(mem []Word) (filled, total int) {
	total = s.fatNodes * s.dup
	for i := 0; i < total; i++ {
		if mem[s.fat.At(i)] != model.Empty {
			filled++
		}
	}
	return filled, total
}

// Seed initializes work-assignment padding in the runtime's memory.
func (s *Sorter) Seed(mem []Word) {
	for i := range s.groups {
		s.groups[i].sorter.Seed(mem)
	}
	s.glue.Seed(mem)
	s.shuf.Seed(mem)
}

// Program returns the full Section 3 sort as a model.Program.
func (s *Sorter) Program() model.Program {
	return func(p model.Proc) { s.Sort(p) }
}

// groupOf maps a processor id to its group.
func (s *Sorter) groupOf(pid int) int { return pid * s.groupCount / s.p }

// Sort runs every phase on the calling processor by executing the
// declared phase graph. Each transition is individually gated (a
// processor moves on only once the global state it needs is complete),
// so crashes and delays never block survivors.
func (s *Sorter) Sort(p model.Proc) {
	s.graph.Run(p)
}

// Graph returns the sorter's declared phase graph. The resident team
// runs it with per-phase notifications, and the certification harness
// introspects it.
func (s *Sorter) Graph() *engine.Graph { return s.graph }

// lcState carries one execution's per-processor locals between phases:
// the elected winner group and the learned global root. A respawned
// worker re-enters the graph from phase A and re-derives both from
// shared memory.
type lcState struct {
	w    int // elected winner group (B:winner)
	root int // global root element, the winner's median sample (D:glue)
}

// buildGraph declares the §3 sort as an engine phase graph. The phase
// sequence, labels and bodies reproduce the seed's inline orchestration
// operation-for-operation; the inner §2 sorts embed as subgraphs over a
// prefixing model.SubProc, so their own phase labels ("A:1:build", …)
// carry through unchanged and the outer phase A stays label-free
// (Quiet), exactly as before.
func (s *Sorter) buildGraph() {
	g := engine.New("lowcont").WithState(func() any { return &lcState{} })
	g.Add(engine.Phase{
		Name:  "A:inner",
		Quiet: true,
		Body: engine.Embed(func(p model.Proc) (*engine.Graph, model.Proc) {
			grp := &s.groups[s.groupOf(p.ID())]
			return grp.sorter.Graph(), model.NewSubProc(p, p.ID()-grp.firstPID, grp.procs, grp.base, "A:")
		}),
		Done: func(mem []Word) bool {
			for i := range s.groups {
				if !s.groups[i].sorter.Graph().Done(mem) {
					return false
				}
			}
			return true
		},
	})
	g.Add(engine.Phase{
		Name: "B:winner",
		Body: func(p model.Proc, st any) {
			st.(*lcState).w = s.selectWinner(p, s.groupOf(p.ID()))
		},
		Done: func(mem []Word) bool { return mem[s.winner.At(1)] != model.Empty },
	})
	g.Add(engine.Phase{
		// The write-most fill is probabilistic — nearly all duplicates
		// are filled w.h.p., none are guaranteed — so the phase carries
		// no completion predicate.
		Name: "C:fill",
		Body: func(p model.Proc, st any) { s.fillFat(p, st.(*lcState).w) },
	})
	g.Add(engine.Phase{
		Name: "D:glue",
		Body: func(p model.Proc, st any) {
			ls := st.(*lcState)
			s.glue.Run(p, func(j int) { s.glueJob(p, ls.w, j+1) })
			// Learn the global root (the winner's median sample) through
			// a random fat duplicate — every processor needs it, so
			// reading the winner's slice directly here would concentrate
			// P reads on one word. The read stays at the end of this
			// body so the op is attributed to phase D, as it always was.
			ls.root = s.fatElem(p, ls.w, 1)
		},
		Done: func(mem []Word) bool { return model.Doneish(mem[s.glue.RootAddr()]) },
	})
	g.Add(engine.Phase{
		Name: "E:sum",
		Body: func(p model.Proc, st any) { s.lcTreeSum(p, st.(*lcState).root) },
		Done: func(mem []Word) bool { sized, _ := s.table.Progress(mem); return sized == s.n },
	})
	g.Add(engine.Phase{
		Name: "F:place",
		Body: func(p model.Proc, st any) { s.lcFindPlace(p, st.(*lcState).root) },
		Done: func(mem []Word) bool { _, placed := s.table.Progress(mem); return placed == s.n },
	})
	g.Add(engine.Phase{
		Name: "G:shuffle",
		Body: func(p model.Proc, st any) {
			s.shuf.Run(p, func(j int) {
				elem := j + 1
				r := p.Read(s.table.PlaceAddr(elem))
				p.Write(s.table.OutAddr(int(r)-1), Word(elem))
			})
		},
		Done: func(mem []Word) bool {
			for r := 0; r < s.n; r++ {
				if mem[s.table.OutAddr(r)] == model.Empty {
					return false
				}
			}
			return true
		},
	})
	s.graph = g
}

// Places extracts every element's final 1-based rank after a run.
func (s *Sorter) Places(mem []Word) []int { return s.table.Places(mem) }

// Output extracts the element ids in sorted order after a run.
func (s *Sorter) Output(mem []Word) []int { return s.table.Output(mem) }

// Depth returns the built pivot tree's depth after a run. The root is
// the winner's median sample, so callers pass the run's memory.
func (s *Sorter) Depth(mem []Word) int {
	// Recover the winner from the selection tree root.
	w := int(mem[s.winner.At(1)]) - 1
	if w < 0 {
		return 0
	}
	grp := &s.groups[w]
	k := s.inorderIndex(1)
	r := s.sampleRank(k, grp.size)
	local := int(mem[grp.sorter.OutAddr(r-1)])
	return s.table.DepthFrom(mem, grp.base+local)
}

// --- winner selection (Fig. 9) ---

// selectWinner elects one finished group. candidate is the calling
// processor's (finished) group; the return value is the elected group.
// Processors delay themselves in randomized waves — a geometric coin
// run of length s yields a wait of K·(log P − s) steps, so about one
// processor enters immediately, two a beat later, and so on — which
// keeps the contention of the climb at O(log P) expected (Lemma 3.2).
func (s *Sorter) selectWinner(p model.Proc, candidate int) int {
	logP := bits.Len(uint(s.p - 1))
	run := p.Rand().Geometric(logP)
	for i := 0; i < waitUnit*(logP-run); i++ {
		p.Idle()
	}
	j := s.winLeaves + p.ID()%s.winLeaves
	v := p.Read(s.winner.At(j))
	for v == model.Empty && j != 1 {
		j /= 2
		v = p.Read(s.winner.At(j))
	}
	if j == 1 && v == model.Empty {
		p.CAS(s.winner.At(1), model.Empty, Word(candidate+1))
		v = p.Read(s.winner.At(1))
	}
	if 2*j+1 < s.winner.Len {
		p.Write(s.winner.At(2*j), v)
		p.Write(s.winner.At(2*j+1), v)
	}
	return int(v) - 1
}

// --- fat tree (§3.2) ---

// inorderIndex returns the 1-based in-order position of heap node h in
// the complete fat tree, i.e. which sample (by rank order) lives there.
func (s *Sorter) inorderIndex(h int) int {
	level := bits.Len(uint(h)) - 1
	pos := h - 1<<level
	return (2*pos + 1) << (s.fatLevels - 1 - level)
}

// heapOfInorder is the inverse of inorderIndex.
func (s *Sorter) heapOfInorder(k int) int {
	t := bits.TrailingZeros(uint(k))
	level := s.fatLevels - 1 - t
	pos := (k>>t - 1) / 2
	return 1<<level + pos
}

// sampleRank returns the rank (1-based, within the winner's slice of
// length size) of the k-th sample. Ranks are evenly spaced and strictly
// increasing because size >= fatNodes+1.
func (s *Sorter) sampleRank(k, size int) int {
	return k * size / (s.fatNodes + 1)
}

// sampleIndexOfRank reports which sample (1..fatNodes) has the given
// slice rank, or 0 if the rank is not a sample point.
func (s *Sorter) sampleIndexOfRank(r, size int) int {
	k := r * (s.fatNodes + 1) / size
	for c := k - 1; c <= k+1; c++ {
		if c >= 1 && c <= s.fatNodes && s.sampleRank(c, size) == r {
			return c
		}
	}
	return 0
}

// sampleDirect reads the global element id of fat node h straight from
// the winner's sorted slice (one shared read).
func (s *Sorter) sampleDirect(p model.Proc, w, h int) int {
	grp := &s.groups[w]
	r := s.sampleRank(s.inorderIndex(h), grp.size)
	local := int(p.Read(grp.sorter.OutAddr(r - 1)))
	return grp.base + local
}

// fatElem reads fat node h's element id through a uniformly random
// duplicate, falling back to the winner's slice for the (w.h.p. empty)
// set of unfilled duplicates. Spreading P readers over sqrt(P)
// duplicates is what caps read contention at sqrt(P).
func (s *Sorter) fatElem(p model.Proc, w, h int) int {
	c := p.Rand().Intn(s.dup)
	if v := p.Read(s.fat.At((h-1)*s.dup + c)); v != model.Empty {
		return int(v)
	}
	return s.sampleDirect(p, w, h)
}

// fillFat performs the write-most fill: log P rounds of writing a
// uniformly random duplicate slot with its node's sample id. Writes are
// idempotent, nobody waits for the table to be complete, and after all
// processors have taken their rounds every slot is filled w.h.p.
// (coupon collecting P·log P writes over at most P slots).
func (s *Sorter) fillFat(p model.Proc, w int) {
	rng := p.Rand()
	for r := 0; r < s.fillRounds; r++ {
		slot := rng.Intn(s.fatNodes * s.dup)
		e := s.sampleDirect(p, w, slot/s.dup+1)
		p.Write(s.fat.At(slot), Word(e))
	}
}

// --- glue phase (§3.2 step 3) ---

// glueJob processes one element of the glue work-assignment tree:
// sample elements have their fat-child pointers materialized (their
// position in the tree is fixed by the fat structure); every other
// element is inserted below the fat leaves by the Fig. 4 loop.
func (s *Sorter) glueJob(p model.Proc, w, e int) {
	grp := &s.groups[w]
	if e > grp.base && e <= grp.base+grp.size {
		local := e - grp.base
		r := int(p.Read(grp.sorter.PlaceAddr(local)))
		if k := s.sampleIndexOfRank(r, grp.size); k > 0 {
			h := s.heapOfInorder(k)
			if 2*h+1 <= s.fatNodes {
				// Internal fat node: children are the neighbouring
				// samples; write the real tree pointers so phases 2–3
				// can traverse them.
				small := s.sampleDirect(p, w, 2*h)
				big := s.sampleDirect(p, w, 2*h+1)
				p.Write(s.table.ChildAddr(core.Small, e), Word(small))
				p.Write(s.table.ChildAddr(core.Big, e), Word(big))
			}
			return
		}
	}
	s.fatInsert(p, w, e)
}

// fatInsert descends the fat levels arithmetically, reading one random
// duplicate per level, then continues with the ordinary CAS descent
// from the fat leaf it lands under.
func (s *Sorter) fatInsert(p model.Proc, w, e int) {
	h := 1
	for {
		fe := s.fatElem(p, w, h)
		next := 2 * h
		if !p.Less(e, fe) {
			next = 2*h + 1
		}
		if next > s.fatNodes {
			s.table.BuildTreeFrom(p, e, fe)
			return
		}
		h = next
	}
}

// --- low-contention phase 2 (§3.3) ---

// lcTreeSum computes all subtree sizes by random probing: sizes and
// DONE marks flow bottom-up; the root gets ALLDONE, which probing
// processors push back down one node at a time before quitting.
func (s *Sorter) lcTreeSum(p model.Proc, root int) {
	rng := p.Rand()
	unproductive := 0
	for {
		i := 1 + rng.Intn(s.n)
		switch v := p.Read(s.sumDone.At(i)); {
		case v == model.AllDone:
			s.pushMark(p, s.sumDone, i)
			return
		case v == model.Empty:
			l := p.Read(s.table.ChildAddr(core.Small, i))
			r := p.Read(s.table.ChildAddr(core.Big, i))
			ls, okL := model.ChildSum(p, l, s.sumDone.At, s.table.SizeAddr)
			rs, okR := model.ChildSum(p, r, s.sumDone.At, s.table.SizeAddr)
			if okL && okR {
				p.Write(s.table.SizeAddr(i), ls+rs+1)
				mark := model.Done
				if i == root {
					mark = model.AllDone
				}
				p.Write(s.sumDone.At(i), mark)
				unproductive = 0
			} else {
				unproductive++
			}
		default: // DONE
			unproductive++
		}
		if unproductive >= s.fallbackAfter {
			// Bounded deterministic escape: one Fig. 5 pass from the
			// root (crash-safe pruning on size>0), then release the
			// random probers.
			s.table.TreeSumFrom(p, root)
			p.Write(s.sumDone.At(root), model.AllDone)
			return
		}
	}
}

// pushMark copies an ALLDONE mark from node i to its present children
// (the quitting processor's parting gift, as in Fig. 8).
func (s *Sorter) pushMark(p model.Proc, marks model.Region, i int) {
	if l := p.Read(s.table.ChildAddr(core.Small, i)); l != model.Empty {
		p.Write(marks.At(int(l)), model.AllDone)
	}
	if r := p.Read(s.table.ChildAddr(core.Big, i)); r != model.Empty {
		p.Write(marks.At(int(r)), model.AllDone)
	}
}

// --- low-contention phase 3 (§3.3) ---

// placeMarks aliases the table's placeDone region; lcFindPlace needs
// region-style access for pushMark. The region comes straight from the
// table (not rebuilt from PlaceDoneAddr(0)) so that the addresses agree
// with the deterministic fallback even on non-contiguous padded arenas.
func (s *Sorter) placeMarks() model.Region {
	return s.table.PlaceDoneRegion()
}

// placeChild writes child c's rank if it is still unset, given its
// parent's rank components. sub is the number of elements smaller than
// c's whole subtree.
func (s *Sorter) placeChild(p model.Proc, c Word, sub Word) {
	if c == model.Empty {
		return
	}
	ci := int(c)
	if p.Read(s.table.PlaceAddr(ci)) != 0 {
		return
	}
	sm := model.SmallSubtreeSize(p, p.Read(s.table.ChildAddr(core.Small, ci)), s.table.SizeAddr)
	p.Write(s.table.PlaceAddr(ci), sub+sm+1)
}

// lcFindPlace assigns every element its rank by random probing: place
// values flow top-down from the root (whose rank is its small-subtree
// size plus one), DONE marks flow bottom-up, and the root's ALLDONE
// mark flows back down to release the probers — the three passes of
// §3.3.
func (s *Sorter) lcFindPlace(p model.Proc, root int) {
	marks := s.placeMarks()
	rng := p.Rand()
	unproductive := 0
	for {
		i := 1 + rng.Intn(s.n)
		switch v := p.Read(marks.At(i)); {
		case v == model.AllDone:
			s.pushMark(p, marks, i)
			return
		case model.Doneish(v):
			unproductive++
		default: // not yet complete
			pl := p.Read(s.table.PlaceAddr(i))
			if pl == 0 {
				if i == root {
					sm := model.SmallSubtreeSize(p, p.Read(s.table.ChildAddr(core.Small, root)), s.table.SizeAddr)
					p.Write(s.table.PlaceAddr(root), sm+1)
					unproductive = 0
				} else {
					unproductive++
				}
				break
			}
			// Rank known: push ranks to unplaced children, then mark
			// this node complete once both child subtrees are.
			l := p.Read(s.table.ChildAddr(core.Small, i))
			r := p.Read(s.table.ChildAddr(core.Big, i))
			sm := model.SmallSubtreeSize(p, l, s.table.SizeAddr)
			sub := pl - sm - 1
			s.placeChild(p, l, sub)
			s.placeChild(p, r, pl)
			lDone := l == model.Empty || model.Doneish(p.Read(marks.At(int(l))))
			rDone := r == model.Empty || model.Doneish(p.Read(marks.At(int(r))))
			if lDone && rDone {
				mark := model.Done
				if i == root {
					mark = model.AllDone
				}
				p.Write(marks.At(i), mark)
				unproductive = 0
			} else {
				unproductive++
			}
		}
		if unproductive >= s.fallbackAfter {
			s.table.FindPlaceFrom(p, root, 0)
			p.Write(marks.At(root), model.AllDone)
			return
		}
	}
}

func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
