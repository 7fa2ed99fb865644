// Command mdserve runs the simulation job service: a persistent HTTP
// server that accepts run, sweep, analysis and figure jobs on the
// deterministic engine, with multi-tenant admission control, a durable
// content-addressed result store and graceful checkpoint-parking
// shutdown.
//
// Quickstart:
//
//	mdserve -addr 127.0.0.1:8080 -state /var/tmp/mdserve &
//	curl -s -XPOST localhost:8080/v1/jobs \
//	    -d '{"tenant":"alice","spec":{"kind":"run","atoms":120,"steps":8}}'
//	curl -s localhost:8080/v1/jobs/<id>
//	curl -s localhost:8080/v1/jobs/<id>/result
//
// SIGINT/SIGTERM shut down gracefully: in-flight short jobs drain, long
// runs park at a checkpoint boundary, and restarting with the same
// -state resumes everything that was accepted but unfinished.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
)

func main() {
	app := cli.New("mdserve", flag.CommandLine)
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address (host:0 picks a free port)")
		state      = flag.String("state", "mdserve-state", "state directory (store, journal, parked checkpoints)")
		storeMax   = flag.Int64("store-max-bytes", 64<<20, "result store size bound before LRU eviction")
		workers    = flag.Int("workers", 2, "concurrent job executors")
		queueDepth = flag.Int("queue-depth", 8, "per-tenant queue bound before load shedding")
		deadline   = flag.Duration("deadline", 2*time.Minute, "default per-job deadline")
		retries    = flag.Int("max-retries", 2, "bounded retries for retryable job failures")
		quantum    = flag.Duration("quantum", 0, "preempt long runs at their next checkpoint boundary after this much execution (0 disables)")
		weights    = flag.String("weights", "", "fair-queue tenant weights, e.g. alice=2,bob=1")
		drain      = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget before force-close")
	)
	app.KernelWorkersFlag("spread each job's physics kernels over this many host cores (0 and 1 run them inline; results identical for every value)")
	flag.Parse()

	die := func(args ...interface{}) {
		fmt.Fprintln(os.Stderr, append([]interface{}{"mdserve:"}, args...)...)
		os.Exit(1)
	}

	tw := map[string]float64{}
	if *weights != "" {
		for _, pair := range strings.Split(*weights, ",") {
			name, val, ok := strings.Cut(pair, "=")
			if !ok {
				die("bad -weights entry:", pair)
			}
			w, err := strconv.ParseFloat(val, 64)
			if err != nil || w <= 0 {
				die("bad -weights value:", pair)
			}
			tw[name] = w
		}
	}

	srv, err := serve.Open(serve.Config{
		Addr:            *addr,
		StateDir:        *state,
		StoreMaxBytes:   *storeMax,
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		TenantWeights:   tw,
		DefaultDeadline: *deadline,
		MaxRetries:      *retries,
		PreemptQuantum:  *quantum,
		KernelWorkers:   app.KernelWorkers,
		Obs:             app.Reg,
	})
	if err != nil {
		die(err)
	}
	fmt.Printf("mdserve: listening on %s (state %s)\n", srv.Addr(), *state)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("mdserve: %s, draining (budget %s)\n", got, *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "mdserve: shutdown:", err)
		os.Exit(1)
	}
	fmt.Println("mdserve: drained cleanly; journaled work resumes on restart")
}
