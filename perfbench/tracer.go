package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into the program. Spans of one operation share Req; Parent links a
// span to the one that caused it (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	reqs  uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// req mints a request identifier shared by one operation's spans.
func (t *tracer) req() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// add records [start, end) under name and returns the span's ID.
func (t *tracer) add(name string, parent, req uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// begin opens a span starting now, so that spans recorded while it is
// open can name it as their parent; end closes it.
func (t *tracer) begin(name string, parent, req uint64) uint64 {
	now := time.Now()
	return t.add(name, parent, req, now, now)
}

func (t *tracer) end(id uint64) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// addDur records a span of known duration ending at end — how interior
// timings that arrive as durations (crew queue wait, crew run) become
// spans. Durations are exact; positions are placed back to back.
func (t *tracer) addDur(name string, parent, req uint64, end time.Time, d time.Duration) uint64 {
	return t.add(name, parent, req, end.Add(-d), end)
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval its children cover (children
// may overlap, as concurrent shard calls do, so the union is taken).
func selfTimes(spans []span) []layerRow {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		dur := s.End - s.Start
		r.Count++
		r.TotalMs += nsMs(dur)
		r.SelfMs += nsMs(dur - covered(s.Start, s.End, children[s.ID]))
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	ivs = slices.Clone(ivs)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// printLayerTable writes the per-layer self-time table; floors maps a
// span name to the floor span it is measured against.
func printLayerTable(w io.Writer, rows []layerRow, floors map[string]string) {
	byName := map[string]layerRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	fmt.Fprintf(w, "%-22s %8s %12s %12s   %-18s %12s\n", "layer span", "count", "mean ms", "self ms/op", "floor", "floor ms/op")
	for _, r := range rows {
		line := fmt.Sprintf("%-22s %8d %12.4f %12.4f", r.Name, r.Count, r.TotalMs/float64(r.Count), r.SelfMs/float64(r.Count))
		if f, ok := floors[r.Name]; ok {
			if fr, ok := byName[f]; ok && fr.Count > 0 {
				line += fmt.Sprintf("   %-18s %12.4f", f, fr.TotalMs/float64(fr.Count))
			}
		}
		fmt.Fprintln(w, line)
	}
}

// writeSpans dumps the run's spans with its provenance.
func (t *tracer) writeSpans(path string, meta map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	doc := map[string]any{"meta": meta, "spans": t.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}
