// Command sortd serves wait-free sorts over HTTP: the pooled
// wfsort.Sorter behind internal/server's admission queue, batcher and
// drain logic.
//
//	sortd -addr :8080 -workers 4
//
// Endpoints: POST /sort, GET /healthz, /metrics (?format=prom),
// /requests, /trace/{id}, /obs/ (expvar + pprof). SIGINT/SIGTERM
// starts a graceful drain: in-flight requests finish, new ones get
// 503, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wfsort"
	"wfsort/internal/qos"
	"wfsort/internal/server"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "sortd:", err)
		os.Exit(1)
	}
}

// run is the whole daemon behind a testable seam: ctx cancellation
// doubles as a signal, and ready (when non-nil) receives the bound
// address once the listener is up.
func run(ctx context.Context, args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("sortd", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		workers     = fs.Int("workers", 0, "sort workers per team (0 = GOMAXPROCS)")
		seed        = fs.Uint64("seed", 0, "base seed for randomized choices")
		maxInflight = fs.Int("max-inflight", 64, "admitted requests before 429")
		maxKeys     = fs.Int("max-keys", 0, "request size limit before 413 (0 = largest pool class)")
		batchKeys   = fs.Int("batch-keys", 256, "batch requests of at most this many keys (-1 disables)")
		batchWindow = fs.Duration("batch-window", 500*time.Microsecond, "how long a batch waits for company")
		timeout     = fs.Duration("timeout", 5*time.Second, "per-request deadline")
		drainWait   = fs.Duration("drain-timeout", 30*time.Second, "graceful drain limit on shutdown")
		churn       = fs.Int("churn", 0, "kill+revive every non-zero worker this many times per sort")
		crashFrac   = fs.Float64("crash-frac", 0, "fail-stop this fraction of workers per sort (chaos mode)")
		qosPath     = fs.String("qos", "", "QoS config JSON: per-class token buckets, priorities, deadlines (see internal/qos)")
		slo         = fs.Duration("slo", 0, "p99 latency objective; enables the multi-window SLO burn-rate monitor (0 = off)")
		flightDir   = fs.String("flight-dir", "", "arm the flight recorder: incident dumps (spans+exemplars+metrics+Perfetto) land here on an SLO page or watchdog verdict")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var qosCfg *qos.Config
	if *qosPath != "" {
		b, err := os.ReadFile(*qosPath)
		if err != nil {
			return err
		}
		if qosCfg, err = qos.ParseConfig(b); err != nil {
			return err
		}
	}

	var opts []wfsort.Option
	if *seed != 0 {
		opts = append(opts, wfsort.WithSeed(*seed))
	}
	if *churn > 0 {
		opts = append(opts, wfsort.WithChurn(*churn))
	}
	if *crashFrac > 0 {
		opts = append(opts, wfsort.WithCrashes(*crashFrac, 0))
	}

	srv, err := server.New(server.Config{
		Workers:      *workers,
		Options:      opts,
		MaxInFlight:  *maxInflight,
		MaxKeys:      *maxKeys,
		BatchMaxKeys: *batchKeys,
		BatchWindow:  *batchWindow,
		Timeout:      *timeout,
		QoS:          qosCfg,
		SLO:          *slo,
		FlightDir:    *flightDir,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	qosNote := "off"
	if qosCfg != nil {
		qosNote = fmt.Sprintf("%d classes", len(qosCfg.Classes))
	}
	fmt.Fprintf(out, "sortd: serving on %s (workers=%d churn=%d crash-frac=%g qos=%s)\n",
		ln.Addr(), *workers, *churn, *crashFrac, qosNote)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(out, "sortd: %v — draining\n", sig)
	case <-ctx.Done():
		fmt.Fprintln(out, "sortd: context canceled — draining")
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Stop accepting first, then drain the sort pipeline: in-flight
	// requests finish, queued batches flush, the pool is released.
	if err := hs.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	st := srv.Stats()
	fmt.Fprintf(out, "sortd: drained (%d requests served, %d batches)\n", st.Requests, st.Batches)
	return nil
}
