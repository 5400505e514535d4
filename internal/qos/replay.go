package qos

import (
	"fmt"
	"sort"
	"strings"

	"wfsort/internal/loadgen"
	"wfsort/internal/native"
	"wfsort/internal/sizeclass"
)

// Event is one decision in a replayed schedule.
type Event struct {
	// AtNs is the simulated instant of the decision.
	AtNs int64
	// Kind is admit, deny, reject, shed, or dispatch.
	Kind string
	// Seq indexes the trace's request list.
	Seq int
	// Class is the request's class name.
	Class string
	// WaitNs is the queue wait (dispatch events only).
	WaitNs int64
	// RetryNs is the bucket's retry hint (deny events only).
	RetryNs int64
}

// Replay runs a loadgen trace through the admission buckets and the
// queue policy against a simulated one-slot server whose service
// time is baseNs + perKeyNs·n, and returns every decision in order.
//
// The simulation shares the production decision code — the same
// Bucket.Take, Sched.Shed and Sched.Pick the server runs — driven by
// a virtual clock instead of a wall clock. Decisions are pure integer
// functions of their inputs, so two replays of one trace are
// byte-identical: the determinism golden pins the schedule itself,
// not just summary statistics.
func Replay(t *loadgen.Trace, cfg *Config, baseNs, perKeyNs int64) ([]Event, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	buckets := make(map[string]*Bucket, len(cfg.Classes))
	for i := range cfg.Classes {
		c := &cfg.Classes[i]
		buckets[c.Name] = NewBucket(c.Rate, c.Burst)
	}
	sched := NewSched(cfg, nil)

	type arrival struct {
		seq  int
		atNs int64
		name string
		n    int
	}
	arr := make([]arrival, len(t.Reqs))
	for i, r := range t.Reqs {
		if r.Class < 0 || r.Class >= len(t.Spec.Classes) {
			return nil, cfgErrf("", "trace request %d names class index %d of %d", i, r.Class, len(t.Spec.Classes))
		}
		arr[i] = arrival{seq: i, atNs: r.AtNs, name: t.Spec.Classes[r.Class].Name, n: r.N}
	}
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].atNs < arr[j].atNs })

	var (
		events    []Event
		queue     []native.JobView
		sizes     = map[uint64]int{} // Seq -> key count, for service time
		busyUntil int64
		now       int64
		next      = 0
	)
	ingest := func(a arrival) {
		now = a.atNs
		c := cfg.Class(a.name)
		if c == nil {
			events = append(events, Event{AtNs: now, Kind: "reject", Seq: a.seq, Class: a.name})
			return
		}
		ok, retryNs := buckets[a.name].Take(now, 1)
		if !ok {
			events = append(events, Event{AtNs: now, Kind: "deny", Seq: a.seq, Class: a.name, RetryNs: retryNs})
			return
		}
		events = append(events, Event{AtNs: now, Kind: "admit", Seq: a.seq, Class: a.name})
		est := int64(a.n)
		if cap, ok := sizeclass.For(a.n); ok {
			est = int64(cap)
		}
		v := native.JobView{
			Seq:      uint64(a.seq),
			Class:    a.name,
			Priority: c.Priority,
			EstCost:  est,
			QueuedNs: now,
		}
		if c.DeadlineMs > 0 {
			v.DeadlineNs = now + int64(c.DeadlineMs*1e6)
		}
		sizes[v.Seq] = a.n
		queue = append(queue, v)
	}

	for next < len(arr) || len(queue) > 0 {
		if len(queue) == 0 {
			ingest(arr[next])
			next++
			continue
		}
		dispatchAt := busyUntil
		if now > dispatchAt {
			dispatchAt = now
		}
		if next < len(arr) && arr[next].atNs <= dispatchAt {
			ingest(arr[next])
			next++
			continue
		}
		now = dispatchAt
		// Shed pass, exactly as the admission queue runs it: every
		// doomed job leaves the queue before Pick sees it.
		kept := queue[:0]
		for _, v := range queue {
			if sched.Shed(now, v) {
				events = append(events, Event{AtNs: now, Kind: "shed", Seq: int(v.Seq), Class: v.Class,
					WaitNs: now - v.QueuedNs})
			} else {
				kept = append(kept, v)
			}
		}
		queue = kept
		if len(queue) == 0 {
			continue
		}
		pick := sched.Pick(now, queue)
		v := queue[pick]
		queue = append(queue[:pick], queue[pick+1:]...)
		events = append(events, Event{AtNs: now, Kind: "dispatch", Seq: int(v.Seq), Class: v.Class,
			WaitNs: now - v.QueuedNs})
		busyUntil = now + baseNs + perKeyNs*int64(sizes[v.Seq])
	}
	return events, nil
}

// FormatEvents renders a schedule one decision per line — the golden
// file format.
func FormatEvents(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "t=%-12d %-8s seq=%-4d class=%s", e.AtNs, e.Kind, e.Seq, e.Class)
		switch e.Kind {
		case "dispatch", "shed":
			fmt.Fprintf(&b, " wait=%d", e.WaitNs)
		case "deny":
			fmt.Fprintf(&b, " retry=%d", e.RetryNs)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
