// faultbench quantifies the slowdown of the parallel MD under injected
// platform faults: for each severity level it runs the fault scenario
// (scaled to that severity) against a healthy baseline and reports wall
// time, slowdown, the comp/comm/sync/lost breakdown and any
// checkpoint-restart recoveries. Comparing -mw mpi against -mw cmpi
// exposes how CMPI's nearest-neighbour synchronization amplifies
// single-node damage.
//
// Usage:
//
//	faultbench -spec 'straggler@0,node=1,slow=4' -severity 0.5,1,2
//	faultbench -scenario faults.json -mw both -p 8 -net tcp
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/md"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/pmd"
	"repro/internal/report"
)

func main() {
	app := cli.New("faultbench", flag.CommandLine)
	scenarioFile := flag.String("scenario", "", "JSON fault scenario file")
	spec := flag.String("spec", "", "fault scenario DSL (see internal/fault.ParseSpec)")
	sevList := flag.String("severity", "1", "comma-separated severity multipliers")
	app.ClusterFlags(1)
	steps := flag.Int("steps", 4, "MD steps")
	mwName := flag.String("mw", "both", "middleware: mpi, cmpi or both")
	app.DecompFlag("decomposition: replicated or domain")
	app.RecoveryFlag()
	tuneCkpt := flag.Bool("tune-ckpt", false, "retune the checkpoint cadence from the observed failure rate (Young/Daly)")
	ckptCost := flag.Float64("ckpt-cost", 0, "virtual seconds one checkpoint costs, the C in the Young/Daly formula (needed by -tune-ckpt)")
	atoms := flag.Int("atoms", 600, "solvated-box size in atoms")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	wdTimeout := flag.Float64("timeout", 30, "watchdog timeout (virtual s); 0 disables")
	wdRetries := flag.Int("retries", 2, "watchdog retry budget")
	wdBackoff := flag.Float64("backoff", 2, "watchdog backoff multiplier")
	app.CkptEveryFlag(1, 0, "checkpoint every k steps (0 = default)")
	app.CkptRingFlags("durable checkpoint directory (resumes a killed run found there)", "on-disk checkpoint ring depth (0 = default)", true)
	restartCost := flag.Float64("restart-cost", 10, "virtual seconds charged per recovery")
	format := flag.String("format", "text", "output format: text or csv")
	app.ObsFlags()
	app.ProfileOutFlag("write the newest faulted run's bottleneck-attribution profile (perf.Profile JSON, recovery bucket included) to this file")
	app.Parse(os.Args[1:])

	net, procs, cpus := app.Net, app.Procs, app.CPUs
	if *steps < 1 {
		app.Usagef("-steps must be >= 1 (got %d)", *steps)
	}
	if *format != "text" && *format != "csv" {
		app.Usagef("-format must be text or csv (got %q)", *format)
	}
	if *scenarioFile != "" && *spec != "" {
		app.Usagef("-scenario and -spec are mutually exclusive")
	}
	var sc *fault.Scenario
	var err error
	switch {
	case *scenarioFile != "":
		sc, err = fault.LoadFile(*scenarioFile)
	case *spec != "":
		sc, err = fault.ParseSpec(*spec)
	default:
		app.Usagef("need -scenario or -spec")
	}
	if err != nil {
		app.Usagef("%v", err)
	}
	if sc.Seed == 0 {
		sc.Seed = *seed
	}
	var sevs []float64
	for _, s := range strings.Split(*sevList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || v < 0 {
			app.Usagef("bad severity %q", s)
		}
		sevs = append(sevs, v)
	}
	var mws []pmd.MiddlewareKind
	switch *mwName {
	case "mpi":
		mws = []pmd.MiddlewareKind{pmd.MiddlewareMPI}
	case "cmpi":
		mws = []pmd.MiddlewareKind{pmd.MiddlewareCMPI}
	case "both":
		mws = []pmd.MiddlewareKind{pmd.MiddlewareMPI, pmd.MiddlewareCMPI}
	default:
		app.Usagef("-mw must be mpi, cmpi or both (got %q)", *mwName)
	}

	if *tuneCkpt && *ckptCost <= 0 {
		app.Usagef("-tune-ckpt needs a positive -ckpt-cost (the Young/Daly formula prices a checkpoint)")
	}

	// The PME mesh depends on the solvated-box size, so the tiling check
	// has to wait until the mesh is known.
	sys, mdCfg, _ := md.NewSolvatedWorkload(*atoms, *seed, nil)
	app.Tiling(procs, mdCfg.PME)

	clCfg := cluster.Config{Nodes: procs / cpus, CPUsPerNode: cpus, Net: net, Seed: *seed}
	wd := mpi.Watchdog{Timeout: *wdTimeout, Retries: *wdRetries, Backoff: *wdBackoff}
	cost := cluster.PentiumIII1GHz()

	defer app.StartObs(obs.ServeOptions{
		Status: func() []string { return []string{"faultbench: scenario " + sc.Name} },
	})()

	// The durable directory identifies ONE run's checkpoint ring, so it
	// only applies to the single faulted run of a 1-severity invocation —
	// the healthy baseline and severity sweeps stay in-memory.
	if app.CkptDir != "" && (len(sevs) != 1 || len(mws) != 1) {
		app.Usagef("-ckpt-dir needs exactly one severity and one middleware (the ring identifies one run)")
	}
	run := func(mw pmd.MiddlewareKind, scenario *fault.Scenario, dir string) *pmd.ResilientResult {
		res, err := pmd.RunResilient(clCfg, cost, pmd.ResilientConfig{
			Config: pmd.Config{
				System:     sys,
				MD:         mdCfg,
				Steps:      *steps,
				Middleware: mw,
				Decomp:     app.Decomp,
				Watchdog:   wd,
				Obs:        app.Reg,
			},
			Scenario:        scenario,
			CheckpointEvery: app.CkptEvery,
			CheckpointDir:   dir,
			KeepCheckpoints: app.CkptKeep,
			RestartCost:     *restartCost,
			Recovery:        app.Recovery,
			TuneCheckpoint:  *tuneCkpt,
			CheckpointCost:  *ckptCost,
		})
		if err != nil {
			app.Fail(err)
		}
		if res.Resumed != nil {
			fmt.Fprintf(os.Stderr, "faultbench: resumed from on-disk checkpoint at step %d (%d corrupt skipped, %.3gs lost)\n",
				res.Resumed.Step, res.Resumed.SkippedCheckpoints, res.Resumed.LostOnDisk)
		}
		res.Final.RecordObs(app.Reg)
		return res
	}

	headers := []string{"mw", "severity", "wall(s)", "slowdown", "excess(s)", "comp", "comm", "sync", "lost", "recoveries", "profile"}
	var rows [][]string
	var last *pmd.ResilientResult // newest faulted run, feeds the manifest
	for _, mw := range mws {
		healthy := run(mw, nil, "")
		for _, sev := range sevs {
			res := run(mw, sc.Scale(sev), app.CkptDir)
			last = res
			if res.IntervalTuned {
				fmt.Fprintf(os.Stderr, "faultbench: Young/Daly retuned the checkpoint cadence to every %d step(s)\n",
					res.CheckpointInterval)
			}
			var tot mpi.Accounting
			for _, a := range res.Acct {
				tot.Add(a)
			}
			sum := tot.Total()
			compPct := 100 * tot.Comp / sum
			commPct := 100 * tot.Comm / sum
			syncPct := 100 * tot.Sync / sum
			lostPct := 100 * tot.Lost / sum
			rows = append(rows, []string{
				mw.String(),
				fmt.Sprintf("%.2g", sev),
				report.Seconds(res.Wall),
				fmt.Sprintf("%.2fx", res.Wall/healthy.Wall),
				report.Seconds(res.Wall - healthy.Wall),
				report.Pct(compPct),
				report.Pct(commPct),
				report.Pct(syncPct),
				report.Pct(lostPct),
				strconv.Itoa(len(res.Recoveries)),
				report.StackedBarLost(compPct, commPct, syncPct, lostPct, 24),
			})
		}
	}

	fmt.Printf("scenario %q on %s, p=%d (%d CPU/node), %d atoms, %d steps\n",
		sc.Name, net.Name, procs, cpus, sys.N(), *steps)
	var werr error
	if *format == "csv" {
		werr = report.CSV(os.Stdout, headers, rows)
	} else {
		werr = report.Table(os.Stdout, headers, rows)
	}
	if werr != nil {
		app.Fail(werr)
	}

	// The attribution view of the newest faulted run: same buckets as the
	// table above plus the recovery detail (rewinds, lost work, restarts).
	if app.ProfileOut != "" {
		if last == nil {
			app.Fail(fmt.Errorf("profile: no faulted run to profile"))
		}
		app.WriteProfile(last.Profile().Encode())
		fmt.Fprintln(os.Stderr, "profile: written to", app.ProfileOut)
	}

	app.WriteManifest(func(m *obs.Manifest) {
		m.Seeds["system"] = *seed
		m.Config["scenario"] = sc.Name
		m.Config["severities"] = sevs
		m.Config["procs"] = procs
		m.Config["steps"] = *steps
		m.Config["net"] = net.Name
		m.Config["decomp"] = app.Decomp.String()
		m.Config["recovery"] = app.Recovery.String()
		if last != nil {
			m.Config["checkpoint_interval"] = last.CheckpointInterval
			m.Config["interval_tuned"] = last.IntervalTuned
		}
	})
}
