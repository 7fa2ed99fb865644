// chaos is the soak harness: it draws seeded random fault scenarios,
// runs the resilient parallel MD under each, and checks the invariants a
// production run must never violate (termination, finite energies,
// bitwise determinism across host-worker counts, checkpoint/restart
// equivalence through the durable on-disk path). The first violation is
// shrunk to a minimal DSL reproducer and the full scenario is written as
// JSON for replay.
//
// Usage:
//
//	chaos -runs 20 -seed 1
//	chaos -runs 100 -p 8 -cpus 2 -net score -fail-dir failures -v
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/pmd"
)

func main() {
	app := cli.New("chaos", flag.CommandLine)
	runs := flag.Int("runs", 20, "number of random scenarios to soak")
	seed := flag.Uint64("seed", 1, "base seed (run i uses a derived stream)")
	steps := flag.Int("steps", 4, "MD steps per run")
	app.ClusterFlags(2) // a crash drops a node
	atoms := flag.Int("atoms", 300, "solvated-box size in atoms")
	workersList := flag.String("workers", "1,4", "comma-separated host-worker counts cross-checked bitwise")
	mwName := flag.String("mw", "mpi", "middleware: mpi or cmpi")
	app.DecompFlag("decomposition: replicated or domain")
	app.RecoveryFlag()
	app.CkptEveryFlag(2, 0, "checkpoint cadence in steps")
	failDir := flag.String("fail-dir", "", "write the failing scenario JSON here")
	verbose := flag.Bool("v", false, "per-run progress")
	app.ObsFlags()
	app.Parse(os.Args[1:])

	if *runs < 1 {
		app.Usagef("-runs must be >= 1 (got %d)", *runs)
	}
	net, procs, cpus := app.Net, app.Procs, app.CPUs
	var mw pmd.MiddlewareKind
	switch *mwName {
	case "mpi":
		mw = pmd.MiddlewareMPI
	case "cmpi":
		mw = pmd.MiddlewareCMPI
	default:
		app.Usagef("-mw must be mpi or cmpi (got %q)", *mwName)
	}
	var workers []int
	for _, s := range strings.Split(*workersList, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || w < 1 {
			app.Usagef("bad -workers entry %q", s)
		}
		workers = append(workers, w)
	}

	logf := func(string, ...interface{}) {}
	if *verbose {
		logf = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "chaos: "+format+"\n", args...)
		}
	}

	defer app.StartObs(obs.ServeOptions{
		Status: func() []string { return []string{fmt.Sprintf("chaos: soaking %d scenarios", *runs)} },
	})()
	h, err := chaos.NewHarness(chaos.Config{
		Seed:            *seed,
		Steps:           *steps,
		Nodes:           procs / cpus,
		CPUsPerNode:     cpus,
		Net:             net,
		Middleware:      mw,
		Decomp:          app.Decomp,
		Recovery:        app.Recovery,
		Atoms:           *atoms,
		Workers:         workers,
		CheckpointEvery: app.CkptEvery,
		Obs:             app.Reg,
		Logf:            logf,
	})
	// The harness owns the workload's PME mesh, so the tiling check is its
	// first act; a rank count it rejects is a usage error like any other.
	var de *pmd.DecompError
	if errors.As(err, &de) {
		err = &cli.UsageError{Err: err}
	}
	if err != nil {
		app.Fail(err)
	}
	fmt.Printf("soaking %d scenarios: p=%d (%d CPU/node) on %s, %s/%s, %d atoms, %d steps, workers %v, horizon %.3gs\n",
		*runs, procs, cpus, net.Name, app.Decomp, app.Recovery, *atoms, *steps, workers, h.Horizon())

	reports, failure, err := h.Soak(*runs)
	if err != nil {
		app.Fail(fmt.Errorf("harness error: %w", err))
	}
	if failure == nil {
		var faults, recoveries int
		for _, r := range reports {
			faults += r.Faults
			recoveries += r.Recoveries
		}
		fmt.Printf("PASS: %d runs, %d faults injected, %d crash recoveries, 0 invariant violations\n",
			len(reports), faults, recoveries)
	} else {
		fmt.Printf("FAIL: run %d (seed %d) violated invariant %q\n", failure.Index, failure.Seed, failure.Err.Name)
		fmt.Printf("  detail:   %s\n", failure.Err.Detail)
		fmt.Printf("  scenario: %s\n", failure.Scenario.DSL())
		fmt.Printf("  minimal:  %s\n", failure.Minimal.DSL())
		fmt.Printf("  reproduce: %s\n", chaos.Repro{
			DSL: failure.Minimal.DSL(), Seed: failure.Seed, Procs: procs, CPUs: cpus,
			Net: app.NetName, Steps: *steps, Atoms: *atoms, Decomp: app.Decomp, Recovery: app.Recovery,
		}.Line())
		if *failDir != "" {
			if err := os.MkdirAll(*failDir, 0o755); err != nil {
				app.Fail(err)
			}
			path := filepath.Join(*failDir, fmt.Sprintf("scenario-%d.json", failure.Seed))
			buf, err := json.MarshalIndent(failure.Scenario, "", "  ")
			if err == nil {
				err = os.WriteFile(path, buf, 0o644)
			}
			if err != nil {
				app.Fail(err)
			}
			fmt.Printf("  scenario JSON written to %s\n", path)
		}
	}
	app.WriteManifest(func(m *obs.Manifest) {
		m.Seeds["base"] = *seed
		m.Config["runs"] = *runs
		m.Config["steps"] = *steps
		m.Config["procs"] = procs
		m.Config["net"] = app.NetName
		m.Config["decomp"] = app.Decomp.String()
		m.Config["recovery"] = app.Recovery.String()
	})
	if failure != nil {
		// A FAIL exit still drains the obs endpoint: the final counters cover
		// the run that violated the invariant, exactly what a collector wants.
		app.Exit(1)
	}
}
