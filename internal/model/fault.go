package model

import (
	"wfsort/internal/xrand"
)

// Crash schedules one processor's fail-stop. The spec vocabulary is
// shared by both runtimes; only the clock differs:
//
//   - On the simulator (internal/pram) Step is a machine step: the
//     processor is killed at the first step >= Step at which it is
//     ready, and never runs again.
//   - On the native runtime (internal/native) there is no global clock,
//     so Step is the processor's own operation ordinal: the processor
//     is killed in place of its Step-th shared-memory operation
//     (ordinals count from 1; Step 0 kills at the first operation).
//
// Per-processor operation counts are the quantity the paper's
// wait-freedom lemmas bound, which makes them the natural native
// analogue of simulator steps: the same []Crash drives a crash quorum
// on either runtime, deterministically.
type Crash struct {
	Step int64 // machine step (pram) / per-processor op ordinal (native)
	PID  int
}

// RandomCrashes builds a crash list killing each processor in [0, p)
// with probability frac, at a uniform step in [0, window). The run seed
// is deliberately not reused: pass any fixed seed for reproducibility.
func RandomCrashes(p int, frac float64, window int64, seed uint64) []Crash {
	rng := xrand.New(seed)
	var out []Crash
	for pid := 0; pid < p; pid++ {
		if rng.Float64() < frac {
			step := int64(0)
			if window > 0 {
				step = rng.Int63() % window
			}
			out = append(out, Crash{Step: step, PID: pid})
		}
	}
	return out
}

// FaultAction enumerates what an Adversary may do to a processor at one
// operation.
type FaultAction int

// Fault actions.
const (
	// FaultNone lets the operation proceed.
	FaultNone FaultAction = iota
	// FaultKill crashes the processor in place of the operation: the
	// Program unwinds via a Killed panic, exactly as a simulator crash
	// or a native Kill landing.
	FaultKill
	// FaultStall delays the processor before the operation executes —
	// the paper's fail/delay adversary's other half. A stalled
	// processor holds no locks (there are none) and blocks nobody;
	// wait-freedom demands the rest of the fleet is unaffected.
	FaultStall
	// FaultBlock parks the processor indefinitely in place of the
	// operation: it stops advancing but stays live until killed. This
	// is the limit case of FaultStall — the "arbitrarily delayed"
	// processor of the paper's fail/delay model — and the fault the
	// observability plane's progress watchdog (internal/obs) exists to
	// detect. The run only completes after the blocked processor is
	// killed (native Team.Kill), since a job waits for every worker.
	FaultBlock
)

// String returns the action's mnemonic.
func (a FaultAction) String() string {
	switch a {
	case FaultNone:
		return "none"
	case FaultKill:
		return "kill"
	case FaultStall:
		return "stall"
	case FaultBlock:
		return "block"
	default:
		return "faultaction(?)"
	}
}

// Fault is an Adversary's verdict for one operation.
type Fault struct {
	Action FaultAction
	// StallOps is the stall length for FaultStall, in scheduler-yield
	// units (the native runtime calls runtime.Gosched this many times).
	StallOps int
}

// Adversary is a fault-injection policy for the native runtime: it is
// consulted before every shared-memory operation with the processor's
// cumulative operation ordinal (1-based, carried across respawned
// incarnations) and decides whether the operation proceeds, stalls, or
// becomes the processor's death. Implementations are called
// concurrently from different processors' goroutines but always
// sequentially for any single pid, so per-pid state needs no locking.
//
// Deterministic, op-count-driven adversaries (internal/native's Plan)
// make native failure interleavings reproducible at exact points in
// each processor's execution — the hardware counterpart of the
// simulator's crash schedules.
type Adversary interface {
	Strike(pid int, op int64) Fault
}
