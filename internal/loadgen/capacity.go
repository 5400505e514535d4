package loadgen

import (
	"context"
	"fmt"
	"io"
	"math"
)

// CapacityConfig drives a capacity sweep: the same workload shape is
// offered at increasing aggregate rates until p99 crosses the SLO,
// and the knee — the highest offered rate that still met it — is the
// server's certified capacity.
type CapacityConfig struct {
	// Base is the workload shape. Its class rates define the traffic
	// mix; each sweep point scales them so the aggregate offered rate
	// hits the point's target.
	Base *Spec
	// Rates are the aggregate offered rates (req/s) to test,
	// ascending. A point that fails is run twice more, and the sweep
	// stops at the first point that fails at least 2 of its 3 runs.
	Rates []float64
	// SLOMs is the p99 latency SLO in milliseconds a point must meet,
	// measured over the totals row. A class with its own SLOMs is
	// additionally held to it.
	SLOMs float64
	// MaxShedFrac is the tolerated shed+deadline fraction per point
	// (default 0.05). Backpressure is legitimate; a point that sheds
	// more than this is past the knee even if survivors are fast.
	MaxShedFrac float64
	// NewTarget builds a fresh target per point (a new in-process
	// server, or a reconnect to a live one) so queue debt from an
	// overloaded point cannot bleed into the next. The returned
	// closer tears the point's target down; both may be nil-free.
	NewTarget func() (Target, func(), error)
	// Log, when non-nil, receives one progress line per point.
	Log io.Writer
}

// CapacityPoint is one sweep point's verdict.
type CapacityPoint struct {
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	P999Ms      float64 `json:"p999_ms"`
	ShedFrac    float64 `json:"shed_frac"`
	Errors      int     `json:"errors"`
	Unsorted    int     `json:"unsorted"`
	Fairness    float64 `json:"fairness"`
	Pass        bool    `json:"pass"`
	// Why names the first gate the point failed ("" when it passed).
	Why string `json:"why,omitempty"`
}

// CapacityReport is a completed sweep: every run of every evaluated
// point plus the knee. KneeRPS is 0 when no point met the SLO.
type CapacityReport struct {
	SLOMs       float64         `json:"slo_ms"`
	MaxShedFrac float64         `json:"max_shed_frac"`
	KneeRPS     float64         `json:"knee_rps"`
	KneeOKRPS   float64         `json:"knee_ok_rps"`
	Points      []CapacityPoint `json:"points"`
	// KneeStages is the server-attributed per-stage latency breakdown
	// at the knee (the last passing point), fetched from targets that
	// implement StageReporter; nil otherwise. It answers "where does a
	// request's time go at capacity" from the server's own clock.
	KneeStages map[string]StageSummary `json:"knee_stages,omitempty"`
}

// SweepCapacity runs the sweep. Correctness failures (unsorted
// responses, transport errors) fail the point regardless of latency —
// a fast wrong answer is not capacity. A failing point runs twice more,
// each time on a fresh target, and ends the sweep only if at least 2 of
// its 3 runs fail, so one noisy run cannot end the search; Points keeps
// every run.
func SweepCapacity(ctx context.Context, cfg CapacityConfig) (*CapacityReport, error) {
	if cfg.Base == nil || len(cfg.Rates) == 0 {
		return nil, fmt.Errorf("capacity: need a base spec and at least one rate")
	}
	if cfg.SLOMs <= 0 {
		return nil, fmt.Errorf("capacity: need an SLO > 0, got %v", cfg.SLOMs)
	}
	if cfg.MaxShedFrac == 0 {
		cfg.MaxShedFrac = 0.05
	}
	baseRate := cfg.Base.TotalRate()
	rep := &CapacityReport{SLOMs: cfg.SLOMs, MaxShedFrac: cfg.MaxShedFrac}
	for _, rate := range cfg.Rates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		trace, err := BuildTrace(cfg.Base.Scaled(rate / baseRate))
		if err != nil {
			return nil, fmt.Errorf("capacity: building trace at %.0f req/s: %w", rate, err)
		}
		var (
			fails  int
			passed CapacityPoint
			stages map[string]StageSummary
		)
		for run := 0; run == 0 || (fails > 0 && run < 3); run++ {
			target, closeTarget, err := cfg.NewTarget()
			if err != nil {
				return nil, fmt.Errorf("capacity: target at %.0f req/s: %w", rate, err)
			}
			pt := judgePoint(rate, BuildReport(Run(ctx, trace, target)), cfg)
			verdict := "PASS"
			if pt.Pass {
				passed = pt
				// Fetch before the target closes: an in-process server
				// tears down with it.
				if sr, ok := target.(StageReporter); ok {
					if st, err := sr.Stages(); err == nil && len(st) > 0 {
						stages = st
					}
				}
			} else {
				fails++
				verdict = "FAIL (" + pt.Why + ")"
			}
			closeTarget()
			rep.Points = append(rep.Points, pt)
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "capacity %8.1f req/s offered: p99 %7.2f ms, ok/s %8.1f, shed %4.1f%%  %s\n",
					pt.OfferedRPS, pt.P99Ms, pt.AchievedRPS, 100*pt.ShedFrac, verdict)
			}
		}
		if fails >= 2 {
			break // past the knee; higher rates only get worse
		}
		// Each passing point overwrites the breakdown, so the report
		// keeps the one measured at the knee itself.
		rep.KneeRPS, rep.KneeOKRPS = rate, passed.AchievedRPS
		if stages != nil {
			rep.KneeStages = stages
		}
	}
	return rep, nil
}

// KneeConfig drives FindKnee, the two-stage capacity search.
type KneeConfig struct {
	CapacityConfig
	// Start is the first offered rate; the coarse stage doubles from
	// it until a point fails or Max is passed.
	Start, Max float64
	// Refine is how many intermediate points to test between the last
	// passing and first failing coarse rates (default 5, giving ~12%
	// knee resolution on a doubling bracket; 0 keeps the coarse knee).
	Refine int
}

// FindKnee brackets the knee with a doubling ladder from Start, then
// refines geometrically inside the bracket. The returned report holds
// every evaluated point (coarse then refined, each stage ascending)
// and the highest offered rate that met the SLO.
func FindKnee(ctx context.Context, cfg KneeConfig) (*CapacityReport, error) {
	if cfg.Start <= 0 || cfg.Max < cfg.Start {
		return nil, fmt.Errorf("capacity: need 0 < Start <= Max, got [%v, %v]", cfg.Start, cfg.Max)
	}
	if cfg.Refine == 0 {
		cfg.Refine = 5
	}
	var coarse []float64
	for r := cfg.Start; r <= cfg.Max; r *= 2 {
		coarse = append(coarse, r)
	}
	cfg.Rates = coarse
	rep, err := SweepCapacity(ctx, cfg.CapacityConfig)
	if err != nil {
		return nil, err
	}
	lo, hi := rep.KneeRPS, rep.Points[len(rep.Points)-1].OfferedRPS
	if lo == 0 || lo == hi || cfg.Refine < 1 {
		// Failed at Start, or never failed up to Max: no bracket.
		return rep, nil
	}
	var fine []float64
	for i := 1; i <= cfg.Refine; i++ {
		fine = append(fine, lo*math.Pow(hi/lo, float64(i)/float64(cfg.Refine+1)))
	}
	cfg.Rates = fine
	ref, err := SweepCapacity(ctx, cfg.CapacityConfig)
	if err != nil {
		return nil, err
	}
	rep.Points = append(rep.Points, ref.Points...)
	if ref.KneeRPS > rep.KneeRPS {
		rep.KneeRPS, rep.KneeOKRPS = ref.KneeRPS, ref.KneeOKRPS
		if ref.KneeStages != nil {
			rep.KneeStages = ref.KneeStages
		}
	}
	return rep, nil
}

func judgePoint(rate float64, r *Report, cfg CapacityConfig) CapacityPoint {
	t := r.Totals
	pt := CapacityPoint{
		OfferedRPS:  rate,
		AchievedRPS: t.AchievedRPS,
		P50Ms:       t.P50Ms,
		P99Ms:       t.P99Ms,
		P999Ms:      t.P999Ms,
		Errors:      t.Errors,
		Unsorted:    t.Unsorted,
		Fairness:    t.Fairness,
	}
	if t.Requests > 0 {
		pt.ShedFrac = float64(t.Shed+t.Deadline) / float64(t.Requests)
	}
	switch {
	case t.Unsorted > 0:
		pt.Why = fmt.Sprintf("%d unsorted responses", t.Unsorted)
	case t.Errors > 0:
		pt.Why = fmt.Sprintf("%d errors", t.Errors)
	case t.OK == 0:
		pt.Why = "no completions"
	case pt.ShedFrac > cfg.MaxShedFrac:
		pt.Why = fmt.Sprintf("shed %.1f%% > %.1f%%", 100*pt.ShedFrac, 100*cfg.MaxShedFrac)
	case t.P99Ms > cfg.SLOMs:
		pt.Why = fmt.Sprintf("p99 %.2f ms > SLO %.2f ms", t.P99Ms, cfg.SLOMs)
	default:
		if pt.Why = classSLOBreach(r, cfg.SLOMs); pt.Why == "" {
			pt.Pass = true
		}
	}
	return pt
}

// classSLOBreach checks per-class SLO overrides (ClassSpec.SLOMs,
// carried onto the report), returning a failure reason or "".
func classSLOBreach(r *Report, defaultSLO float64) string {
	for _, c := range r.Classes {
		slo := c.SLOMs
		if slo == 0 {
			slo = defaultSLO
		}
		if c.OK > 0 && c.P99Ms > slo {
			return fmt.Sprintf("class %s p99 %.2f ms > SLO %.2f ms", c.Name, c.P99Ms, slo)
		}
	}
	return ""
}
