package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"wfsort/internal/loadgen"
	"wfsort/internal/qos"
	"wfsort/internal/server"
)

// The -qos mode gates the QoS plane's reason to exist: under a 50/50
// two-class overload (latency-sensitive small sorts vs bulk ones), the
// priority scheduler must cut the latency class's p99 without starving
// bulk. One seeded trace is generated past the serving knee and run
// twice against otherwise identical in-process servers — once FIFO
// (no QoS config), once with the QoS plane installed — and the gate
// acts on the within-run ratios, so it needs no comparable host:
//
//   - unconditional, any mode: no request in either run may return an
//     unsorted body, and transport errors are zero — a scheduler that
//     corrupts or drops work is wrong before it is slow.
//   - non-quick: the latency class's p99 under QoS must be at most
//     qosLatP99Max of its FIFO p99 — the priority tiers must buy a
//     real latency win at the knee, not a measurement wiggle.
//   - non-quick: the bulk class's completed-OK count under QoS must be
//     at least qosBulkOKMin of its FIFO count — priority must not
//     become starvation; aging is what keeps this gate honest.
//
// There is deliberately no baseline-drift gate: past the knee the FIFO
// p99 depends on exactly when the queue saturates within the horizon,
// which is chaotic run to run (observed 60 ms to 1.8 s on one host),
// so a ratio-drift comparison would gate on noise. The checked-in
// BENCH_qos.json is the certification record of one full run; every
// gating run re-derives both sides of the ratio itself.
//
// In -quick mode the trace shrinks (deterministic interarrivals, short
// horizon) and ratio deviations are reported, not failed — but
// correctness still gates.

const (
	// qosLatP99Max bounds the latency class's p99 under QoS relative
	// to FIFO: at most 70% of the FIFO value.
	qosLatP99Max = 0.7
	// qosBulkOKMin bounds the bulk class's completed requests under
	// QoS relative to FIFO: at least 80% of the FIFO count.
	qosBulkOKMin = 0.8

	qosLatClass  = "lat"
	qosBulkClass = "bulk"
)

// QoSRun is one side of the comparison: the per-class loadgen report
// of a single trace replay.
type QoSRun struct {
	Classes []loadgen.ClassReport `json:"classes"`
	Totals  loadgen.ClassReport   `json:"totals"`
}

func (r *QoSRun) class(name string) *loadgen.ClassReport {
	for i := range r.Classes {
		if r.Classes[i].Name == name {
			return &r.Classes[i]
		}
	}
	return nil
}

// QoSReport is the BENCH_qos.json schema.
type QoSReport struct {
	Host       Host    `json:"host"`
	Quick      bool    `json:"quick,omitempty"`
	OfferedRPS float64 `json:"offered_rps"`
	FIFO       QoSRun  `json:"fifo"`
	QoS        QoSRun  `json:"qos"`
	// LatP99Ratio is qos/fifo for the latency class's p99 (lower is
	// better); BulkOKRatio is qos/fifo for the bulk class's completed
	// requests (higher is better).
	LatP99Ratio float64 `json:"lat_p99_ratio"`
	BulkOKRatio float64 `json:"bulk_ok_ratio"`
}

// qosSpec is the two-class overload both runs replay: half the offered
// requests are small latency-sensitive sorts, half bulk, at an
// aggregate rate chosen past the serving knee (BENCH_capacity sits
// near 400 req/s on the reference host) so the queue is where requests
// spend their time and scheduling order is what decides p99. Quick
// mode uses deterministic interarrivals and a short horizon so the CI
// smoke is schedule-stable.
func qosSpec(quick bool) *loadgen.Spec {
	s := &loadgen.Spec{
		Seed:      23,
		HorizonMs: 3000,
		Classes: []loadgen.ClassSpec{
			{
				Name:     qosLatClass,
				Arrival:  loadgen.ArrivalSpec{Dist: loadgen.DistPoisson, Rate: 250},
				Size:     loadgen.SizeSpec{Dist: loadgen.SizeFixed, N: 192},
				KeySpace: 1000,
				Weight:   1,
			},
			{
				Name:    qosBulkClass,
				Arrival: loadgen.ArrivalSpec{Dist: loadgen.DistPoisson, Rate: 250},
				Size:    loadgen.SizeSpec{Dist: loadgen.SizeUniform, Min: 1 << 10, Max: 1 << 12},
				Weight:  1,
			},
		},
	}
	if quick {
		s.HorizonMs = 600
		for i := range s.Classes {
			s.Classes[i].Arrival.Dist = loadgen.DistDet
			s.Classes[i].Arrival.Shape = 0
		}
	}
	return s
}

// qosConfig is the QoS side's plane config: buckets sized well above
// the offered rates (admission is not what this gate measures — the
// scheduler is), the latency class at the most urgent tier, bulk two
// tiers down, default aging. No deadlines: shedding has its own tests;
// here every admitted request should be a scheduling decision.
func qosConfig(spec *loadgen.Spec) *qos.Config {
	cfg := &qos.Config{AgingMs: 100}
	for _, c := range spec.Classes {
		prio := 0
		if c.Name == qosBulkClass {
			prio = 2
		}
		cfg.Classes = append(cfg.Classes, qos.ClassQoS{
			Name:     c.Name,
			Rate:     2 * c.Arrival.Rate,
			Burst:    256,
			Priority: prio,
		})
	}
	return cfg
}

// runQoS is the -qos entry point, sharing run's flag values. The
// baseline file must exist outside quick/-write mode — the gate never
// compares against it (see the file comment), but its absence means
// the certification record was never produced.
func runQoS(w io.Writer, baseline, out string, write, quick bool) error {
	if !write {
		if _, err := readQoSReport(baseline); err != nil {
			if !(quick && os.IsNotExist(err)) {
				return fmt.Errorf("reading baseline: %w (run with -qos -write to create it)", err)
			}
		}
	}

	rep, err := measureQoS(w, quick)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "qos/fifo: lat p99 ratio %.2f (gate <= %.2f), bulk ok ratio %.2f (gate >= %.2f)\n",
		rep.LatP99Ratio, qosLatP99Max, rep.BulkOKRatio, qosBulkOKMin)
	if out != "" {
		if err := writeQoSReport(out, rep); err != nil {
			return err
		}
	}
	if write {
		if err := writeQoSReport(baseline, rep); err != nil {
			return err
		}
		fmt.Fprintf(w, "qos baseline written to %s\n", baseline)
		return nil
	}

	// Correctness gates in every mode.
	for _, run := range []struct {
		name string
		r    *QoSRun
	}{{"fifo", &rep.FIFO}, {"qos", &rep.QoS}} {
		if n := run.r.Totals.Unsorted; n > 0 {
			return fmt.Errorf("%s run returned %d unsorted bodies", run.name, n)
		}
		if n := run.r.Totals.Errors; n > 0 {
			return fmt.Errorf("%s run hit %d transport errors", run.name, n)
		}
	}

	failures := compareQoS(rep)
	for _, f := range failures {
		fmt.Fprintln(w, "REGRESSION:", f)
	}
	if quick {
		fmt.Fprintf(w, "qos smoke passed: both runs sorted every body (%d ratio deviations reported, not gated)\n",
			len(failures))
		return nil
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d qos gate(s) failed", len(failures))
	}
	fmt.Fprintf(w, "qos gate passed: lat p99 %.2fx fifo, bulk throughput %.2fx fifo\n",
		rep.LatP99Ratio, rep.BulkOKRatio)
	return nil
}

func measureQoS(w io.Writer, quick bool) (*QoSReport, error) {
	spec := qosSpec(quick)
	trace, err := loadgen.BuildTrace(spec)
	if err != nil {
		return nil, err
	}

	fifo, err := replayQoSTrace(trace, nil)
	if err != nil {
		return nil, fmt.Errorf("fifo run: %w", err)
	}
	fmt.Fprintf(w, "fifo: lat p99 %.1f ms (%d ok), bulk %d ok\n",
		classP99(fifo, qosLatClass), classOK(fifo, qosLatClass), classOK(fifo, qosBulkClass))

	qosd, err := replayQoSTrace(trace, qosConfig(spec))
	if err != nil {
		return nil, fmt.Errorf("qos run: %w", err)
	}
	fmt.Fprintf(w, "qos:  lat p99 %.1f ms (%d ok), bulk %d ok\n",
		classP99(qosd, qosLatClass), classOK(qosd, qosLatClass), classOK(qosd, qosBulkClass))

	rep := &QoSReport{
		Host:       hostFingerprint(),
		Quick:      quick,
		OfferedRPS: spec.TotalRate(),
		FIFO:       *fifo,
		QoS:        *qosd,
	}
	if p := classP99(fifo, qosLatClass); p > 0 {
		rep.LatP99Ratio = classP99(qosd, qosLatClass) / p
	}
	if n := classOK(fifo, qosBulkClass); n > 0 {
		rep.BulkOKRatio = float64(classOK(qosd, qosBulkClass)) / float64(n)
	}
	return rep, nil
}

// replayQoSTrace boots a fresh in-process server with batching off,
// so every request is its own scheduling decision, replays the trace
// against it, and aggregates the per-class report. cfg nil is the FIFO
// control: every request sorts at once on a resident team of its own.
// With cfg set, the pool's one-slot admission queue, where the policy
// acts, is the bottleneck.
func replayQoSTrace(trace *loadgen.Trace, cfg *qos.Config) (*QoSRun, error) {
	srv, err := server.New(server.Config{
		MaxInFlight:  256,
		BatchMaxKeys: -1,
		Timeout:      5 * time.Second,
		QoS:          cfg,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	res := loadgen.Run(context.Background(), trace, &loadgen.HandlerTarget{Handler: srv.Handler()})
	rep := loadgen.BuildReport(res)
	return &QoSRun{Classes: rep.Classes, Totals: rep.Totals}, nil
}

func classP99(r *QoSRun, name string) float64 {
	if c := r.class(name); c != nil {
		return c.P99Ms
	}
	return 0
}

func classOK(r *QoSRun, name string) int {
	if c := r.class(name); c != nil {
		return c.OK
	}
	return 0
}

// compareQoS runs the ratio gates (see the file comment): absolute
// thresholds on the within-run ratios, which makes the gate valid on
// any host without a comparable baseline.
func compareQoS(cur *QoSReport) []string {
	var failures []string
	if cur.LatP99Ratio <= 0 {
		failures = append(failures, "lat p99 ratio is unmeasurable: the fifo run completed no latency-class requests")
	} else if cur.LatP99Ratio > qosLatP99Max {
		failures = append(failures, fmt.Sprintf(
			"lat p99 under qos is %.2fx fifo, above the %.2f bound — the priority tiers bought no latency win",
			cur.LatP99Ratio, qosLatP99Max))
	}
	if cur.BulkOKRatio <= 0 {
		failures = append(failures, "bulk ok ratio is unmeasurable: the fifo run completed no bulk requests")
	} else if cur.BulkOKRatio < qosBulkOKMin {
		failures = append(failures, fmt.Sprintf(
			"bulk throughput under qos is %.2fx fifo, below the %.2f floor — priority became starvation",
			cur.BulkOKRatio, qosBulkOKMin))
	}
	return failures
}

func readQoSReport(path string) (*QoSReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r QoSReport
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeQoSReport(path string, r *QoSReport) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
