// Package obs is the wait-free observability plane for the native
// runtime. The simulator (internal/pram + internal/trace) gets exact
// step and contention accounting for free from its global clock; real
// goroutines have no such clock, so this package records what actually
// happened — phase transitions, CAS failures, kills, stalls, respawns
// and periodic op-ordinal snapshots, each with a nanosecond timestamp —
// without ever compromising the property being observed:
//
//   - every processor incarnation writes into its own fixed-capacity
//     event ring: single writer, plain stores into preallocated memory,
//     no locks, no CAS loops, no allocation on the hot path. An
//     instrumented operation is a bounded number of private writes, so
//     instrumentation preserves wait-freedom by construction (DESIGN
//     §9);
//   - a ring that fills up overwrites its oldest events and counts the
//     drops — the newest events are the ones a postmortem needs;
//   - on top of the rings: a Chrome/Perfetto trace exporter (one track
//     per incarnation), per-phase latency histograms merged into
//     model.Metrics, an expvar + pprof live endpoint, and a progress
//     watchdog that flags any live processor whose op ordinal stops
//     advancing — a runtime wait-freedom violation detector
//     complementing internal/chaos's offline op-ceiling certification.
//
// Everything is opt-in: native.TeamJob.Observer is nil by default and
// the hot-path hook is a single pointer nil-check (gated by the
// observer cells of cmd/benchgate).
package obs

import "sync/atomic"

// EventKind enumerates what an Event records.
type EventKind uint8

// Event kinds.
const (
	// EvSpawn opens an incarnation: Op is the ordinal it resumes from
	// (0 for the initial fleet, the predecessor's death ordinal for
	// respawns).
	EvSpawn EventKind = iota
	// EvPhase is a phase transition; Event.Phase names the new phase.
	EvPhase
	// EvCASFail is a failed compare-and-swap; Arg is the address.
	EvCASFail
	// EvStall is an adversary-injected stall; Arg is the yield count
	// (-1 for an indefinite block).
	EvStall
	// EvKill is the processor's death landing (kill flag or adversary).
	EvKill
	// EvSnapshot is a periodic op-ordinal checkpoint (Config
	// SnapshotEvery); it also publishes the ordinal to the watchdog.
	EvSnapshot
	// EvEnd closes an incarnation: the program returned or the kill
	// unwound.
	EvEnd
)

// String returns the kind's mnemonic.
func (k EventKind) String() string {
	switch k {
	case EvSpawn:
		return "spawn"
	case EvPhase:
		return "phase"
	case EvCASFail:
		return "cas-fail"
	case EvStall:
		return "stall"
	case EvKill:
		return "kill"
	case EvSnapshot:
		return "snapshot"
	case EvEnd:
		return "end"
	default:
		return "event(?)"
	}
}

// Event is one entry in an incarnation's ring.
type Event struct {
	// TS is nanoseconds since the observer was created (monotonic).
	TS int64
	// Op is the processor's cumulative operation ordinal at the event.
	Op int64
	// Arg is kind-specific: CAS address, stall yields.
	Arg int64
	// Kind says what happened.
	Kind EventKind
	// Phase is the phase name for EvPhase (constant strings from the
	// algorithm; storing the header is allocation-free).
	Phase string
}

// ring is a fixed-capacity single-writer event buffer. The owning
// goroutine appends with plain stores into preallocated memory; only
// the append count is atomic, so the live endpoint can read totals
// mid-run. Event contents are read only after the incarnation finished
// (the runtime's WaitGroup provides the happens-before edge).
type ring struct {
	buf []Event
	n   atomic.Uint64 // total appends ever
}

func newRing(capacity int) *ring {
	return &ring{buf: make([]Event, capacity)}
}

// append records an event, overwriting the oldest once full. Bounded
// work, no allocation, no CAS: safe on the wait-free hot path.
func (r *ring) append(e Event) {
	n := r.n.Load() // single writer; the load is of our own last store
	r.buf[n%uint64(len(r.buf))] = e
	r.n.Store(n + 1)
}

// events returns the retained events oldest-first.
func (r *ring) events() []Event {
	n := r.n.Load()
	if n <= uint64(len(r.buf)) {
		return r.buf[:n]
	}
	out := make([]Event, 0, len(r.buf))
	start := n % uint64(len(r.buf))
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out
}

// dropped returns how many events were overwritten.
func (r *ring) dropped() uint64 {
	n := r.n.Load()
	if n <= uint64(len(r.buf)) {
		return 0
	}
	return n - uint64(len(r.buf))
}

// total returns how many events were ever appended.
func (r *ring) total() uint64 { return r.n.Load() }
