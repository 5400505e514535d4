// Command perfbench is the repository's end-to-end benchmark: four
// workloads that drive the keyed library sort, the sortd serving stack,
// the streaming external sort and the cluster coordinator from one
// process, check every output against an independent oracle, and print
// one JSON result line. See README.md for the workloads, the metrics
// and how each layer metric maps onto an end-to-end one.
//
//	perfbench --workload keyed-bulk --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// params is everything a workload's set-up receives besides the clock.
type params struct {
	seed     uint64
	tiny     bool   // self-test sizing: small inputs, same code paths
	corrupt  bool   // self-test: the target flips one key of its output
	spillDir string // where stream-spill puts its spill files
	log      io.Writer
}

// instance is one set-up system under test plus its load generator.
type instance interface {
	// measure drives load for d and checks every output. With tr nil it
	// fills pass.e2e; with a tracer it also records spans and fills
	// pass.layers.
	measure(d time.Duration, tr *tracer) (*pass, error)
	close()
}

type pass struct {
	attempted, failed int64
	e2e, layers       map[string]float64
}

func newPass() *pass {
	return &pass{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// check records one operation's oracle verdict.
func (p *pass) check(ok bool) {
	p.attempted++
	if !ok {
		p.failed++
	}
}

type workload struct {
	name  string
	why   string
	setUp func(p params) (instance, error)
	// floors pairs a layer span with the floor span it is compared to in
	// the traced run's self-time table.
	floors map[string]string
}

var workloads = []workload{keyedBulk, serveMix, streamSpill, clusterGather}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setups is how many times a run builds the system; setup_s is the
// median, and the last build is the one measured. Each set-up starts on
// a collected heap, so none pays for the garbage of the one before.
const setups = 5

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// runWorkload sets w up several times, measures the last set-up for
// seconds and assembles the result. A traced run measures half the
// time untraced and half traced, and reports the per-layer metrics
// plus the tracing overhead on every end-to-end metric.
func runWorkload(w workload, p params, seconds float64, traced bool, spansPath string) (*result, error) {
	var setupS []float64
	var inst instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		in, err := w.setUp(p)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		inst = in
	}
	defer inst.close()

	d := time.Duration(seconds * float64(time.Second))
	res := &result{Metrics: map[string]metricOut{}}
	if !traced {
		ps, err := inst.measure(d, nil)
		if err != nil {
			return nil, err
		}
		ps.e2e["setup_s"] = median(setupS)
		if err := fill(res.Metrics, endToEnd, ps.e2e); err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = ps.attempted, ps.failed
		res.Correct = ps.failed == 0
		return res, nil
	}

	plain, err := inst.measure(d/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tp, err := inst.measure(d/2, tr)
	if err != nil {
		return nil, err
	}
	res.Attempted = plain.attempted + tp.attempted
	res.Failed = plain.failed + tp.failed
	res.Correct = res.Failed == 0
	layers := map[string]float64{}
	for _, def := range perLayer {
		layers[def.Name] = 0 // a layer this workload never crosses
	}
	for k, v := range tp.layers {
		if _, ok := findDef(perLayer, k); !ok {
			return nil, fmt.Errorf("%s reported unknown layer metric %q", w.name, k)
		}
		layers[k] = v
	}
	layers["oracle.fail_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	for _, def := range endToEnd {
		if def.Name == "setup_s" {
			continue
		}
		u, t := plain.e2e[def.Name], tp.e2e[def.Name]
		if def.Better == "higher" {
			u, t = t, u
		}
		layers["trace_overhead."+def.Name] = ratio(t, u)
	}
	if err := fill(res.Metrics, perLayer, layers); err != nil {
		return nil, err
	}

	printLayerTable(p.log, selfTimes(tr.snapshot()), w.floors)
	if spansPath != "" {
		meta := map[string]any{"workload": w.name, "seed": p.seed, "host": fingerprint()}
		if err := tr.writeSpans(spansPath, meta); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// fill copies vals into out for exactly the metrics in defs.
func fill(out map[string]metricOut, defs []metricDef, vals map[string]float64) error {
	for _, def := range defs {
		v, ok := vals[def.Name]
		if !ok {
			return fmt.Errorf("metric %q not measured", def.Name)
		}
		out[def.Name] = metricOut{Value: v, Unit: def.Unit}
	}
	for k := range vals {
		if _, ok := findDef(defs, k); !ok {
			return fmt.Errorf("metric %q is not in the catalogue", k)
		}
	}
	return nil
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: "+workloadNames())
		seed     = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 30, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
		spillDir = flag.String("spill-dir", "", "directory for stream-spill's spill files (default: system temp)")
		spansDir = flag.String("spans-dir", "", "directory the traced run writes its spans to (default: none)")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	h := fingerprint()
	hb, _ := json.Marshal(h) // a struct of plain fields always marshals
	fmt.Printf("host %s\n", hb)

	p := params{seed: *seed, spillDir: *spillDir, log: os.Stderr}
	spansPath := ""
	if *spansDir != "" && *trace == 1 {
		spansPath = filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed))
	}
	res, err := runWorkload(w, p, *seconds, *trace == 1, spansPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
