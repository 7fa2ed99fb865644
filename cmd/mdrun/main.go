// mdrun runs the sequential MD engine on the synthetic myoglobin system
// and prints an energy trace — the physical baseline of the study. It can
// persist a checksummed checkpoint ring (-ckpt-dir) so a killed run
// restarts from the newest valid checkpoint, and run under the numeric
// guardrails (-guard) with exact-kernel fallback on a trip.
//
// Usage:
//
//	mdrun -steps 50 -minimize 100 -temp 300 -pme
//	mdrun -steps 500 -ckpt-dir run1.ckpt -ckpt-every 25
//	mdrun -steps 50 -guard -guard-drift 500
//	mdrun -steps 200 -obs-addr 127.0.0.1:8077 -obs-manifest run.json
//	mdrun -steps 100 -kernel-workers 4 -tune-skin
//	mdrun -steps 10 -ranks 16 -decomp domain   # simulated parallel run
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/guard"
	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/pmd"
	"repro/internal/topol"
	"repro/internal/work"
)

func main() {
	app := cli.New("mdrun", flag.CommandLine)
	steps := flag.Int("steps", 10, "dynamics steps")
	minimize := flag.Int("minimize", 50, "steepest-descent steps before dynamics")
	temp := flag.Float64("temp", 300, "initial temperature (K)")
	usePME := flag.Bool("pme", true, "particle mesh Ewald electrostatics (false: shift truncation)")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	dt := flag.Float64("dt", 1.0, "timestep (fs)")
	xyz := flag.String("xyz", "", "write an XYZ trajectory to this file")
	every := flag.Int("every", 1, "trajectory output interval (steps)")
	app.CkptRingFlags("durable checkpoint ring directory (resumes a killed run found there)", "checkpoint ring depth (0 = default)", false)
	app.CkptEveryFlag(10, 1, "checkpoint interval in steps")
	guardOn := flag.Bool("guard", false, "enable numeric guardrails (NaN/Inf + energy drift)")
	guardPolicy := flag.String("guard-policy", "fallback", "on a guard trip: fallback (redo step on exact kernels) or abort")
	guardDrift := flag.Float64("guard-drift", 0, "energy-drift tolerance in kcal/mol (0 disables drift checks)")
	guardWindow := flag.Int("guard-window", 0, "drift window in steps (0 = default)")
	guardInject := flag.Int("guard-inject", 0, "force a synthetic guard trip at this step (test hook)")
	app.ObsFlags()
	app.KernelWorkersFlag("spread the physics kernels over this many host cores (0 and 1 run them inline; results identical for every value)")
	app.SkinFlags("auto-tune the neighbour-list skin before the run (choice recorded in the manifest; replay it with -skin)")
	ranks := flag.Int("ranks", 1, "simulated MPI ranks (1 = the plain sequential engine; > 1 runs the simulated cluster over Gigabit TCP)")
	app.DecompFlag("decomposition for -ranks > 1: replicated or domain")
	app.ProfileOutFlag("write the bottleneck-attribution profile (perf.Profile JSON) to this file; requires -ranks > 1")
	app.Parse(os.Args[1:])

	if *steps < 0 {
		app.Usagef("-steps must be >= 0 (got %d)", *steps)
	}
	if *every < 1 {
		app.Usagef("-every must be >= 1 (got %d)", *every)
	}
	if *dt <= 0 {
		app.Usagef("-dt must be > 0 (got %g)", *dt)
	}
	if *ranks < 1 {
		app.Usagef("-ranks must be >= 1 (got %d)", *ranks)
	}
	if app.ProfileOut != "" && *ranks == 1 {
		// Attribution needs the per-rank phase decomposition of the
		// simulated cluster; the sequential engine has nothing to attribute.
		app.Usagef("-profile-out requires -ranks > 1")
	}
	if *ranks > 1 {
		// The simulated-cluster path measures the PME workload and reports
		// virtual time; the host-side conveniences below have no meaning
		// there or are not wired to it (the numeric guard runs on the
		// sequential engine only), so the combination is an error — not a
		// silent ignore.
		for _, bad := range []struct {
			set  bool
			flag string
		}{
			{!*usePME, "-pme=false"},
			{*xyz != "", "-xyz"},
			{app.CkptDir != "", "-ckpt-dir"},
			{*guardOn, "-guard"},
		} {
			if bad.set {
				app.Usagef("%s is not supported with -ranks > 1", bad.flag)
			}
		}
		// Reject rank counts the decomposition cannot tile before building
		// the system.
		app.Tiling(*ranks, md.PaperPME())
	}
	var policy guard.Policy
	switch *guardPolicy {
	case "fallback":
		policy = guard.PolicyFallback
	case "abort":
		policy = guard.PolicyAbort
	default:
		app.Usagef("-guard-policy must be fallback or abort (got %q)", *guardPolicy)
	}

	reg := app.Reg
	stepGauge := reg.Gauge("repro_run_step", "current MD step of the live run")
	// The attribution profile is computed after the run; until then the
	// obs server's /profilez answers 503 so a scraper can tell "not yet"
	// from "never" (404 when -profile-out is off entirely).
	var profMu sync.Mutex
	var profJSON []byte
	setProfile := func(buf []byte) {
		profMu.Lock()
		profJSON = buf
		profMu.Unlock()
	}
	opts := obs.ServeOptions{
		Status: func() []string {
			return []string{fmt.Sprintf("mdrun: step %.0f of %d", stepGauge.Value(), *steps)}
		},
	}
	if app.ProfileOut != "" {
		opts.Profile = func() ([]byte, error) {
			profMu.Lock()
			defer profMu.Unlock()
			if profJSON == nil {
				return nil, fmt.Errorf("run still in progress")
			}
			return profJSON, nil
		}
	}
	defer app.StartObs(opts)()

	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: *seed})
	var cfg md.Config
	if *usePME {
		cfg = md.PMEDefaultConfig()
	} else {
		cfg = md.DefaultConfig()
	}
	cfg.Temperature = 0 // heat after minimization
	cfg.TimestepFS = *dt
	cfg.Seed = *seed
	cfg.KernelWorkers = app.KernelWorkers
	if app.Skin > 0 {
		cfg.FF.ListCutoff = cfg.FF.CutOff + app.Skin
	}

	fmt.Printf("system: %d atoms, %d bonds, box %.0f×%.0f×%.0f Å, net charge %+.1f\n",
		sys.N(), len(sys.Bonds), sys.Box.L.X, sys.Box.L.Y, sys.Box.L.Z, sys.TotalCharge())

	if app.TuneSkin {
		tuning := md.TuneSkin(sys, cfg, md.TuneOptions{Window: app.TuneWindow, Log: os.Stdout})
		cfg = tuning.Apply(cfg)
		fmt.Printf("tune-skin: chose %.1f Å (list cutoff %.1f Å, %d-step windows)\n",
			tuning.Chosen, cfg.FF.ListCutoff, tuning.Window)
	}

	// One manifest for both paths: the knobs they share, then what only the
	// simulated cluster or only the sequential engine has.
	writeManifest := func() {
		app.WriteManifest(func(m *obs.Manifest) {
			m.Seeds["system"] = *seed
			m.Config["steps"] = *steps
			m.Config["kernel_workers"] = app.KernelWorkers
			if *ranks > 1 {
				m.Config["ranks"] = *ranks
				m.Config["decomp"] = app.Decomp.String()
				m.Config["profile_out"] = app.ProfileOut
				return
			}
			m.Config["pme"] = *usePME
			m.Config["dt_fs"] = *dt
			m.Config["guard"] = *guardOn
			m.Config["skin_angstrom"] = cfg.FF.ListCutoff - cfg.FF.CutOff
			m.Config["skin_tuned"] = app.TuneSkin
		})
	}

	engine := md.NewEngine(sys, cfg)
	if *minimize > 0 {
		before := engine.ComputeForces(nil, nil).Potential()
		after := engine.Minimize(*minimize, 0.1)
		fmt.Printf("minimization: %.1f -> %.1f kcal/mol (%d steps)\n", before, after, *minimize)
	}
	if *temp > 0 {
		engine.InitVelocities(*temp, *seed)
	}

	if *ranks > 1 {
		// Simulated cluster run: the minimized, heated state seeds every
		// rank; the run reports per-step energies plus the virtual wall
		// clock and phase split of the simulated platform.
		var tl *perf.Timeline
		if app.ProfileOut != "" {
			tl = perf.NewTimeline(*ranks)
		}
		res, err := pmd.Run(
			cluster.Config{Nodes: *ranks, CPUsPerNode: 1, Net: netmodel.TCPGigE(), Seed: *seed},
			cluster.PentiumIII1GHz(),
			pmd.Config{
				System:     sys,
				MD:         cfg,
				Steps:      *steps,
				Middleware: pmd.MiddlewareMPI,
				Decomp:     app.Decomp,
				Init:       engine.Snapshot(),
				Obs:        reg,
				Perf:       tl,
			})
		if err != nil {
			app.Fail(err)
		}
		fmt.Printf("simulated cluster: %d ranks over %s, %s decomposition\n",
			*ranks, netmodel.TCPGigE().Name, app.Decomp)
		fmt.Printf("%6s %14s %14s %14s %10s\n", "step", "classic", "pme", "total", "temp(K)")
		for s, rep := range res.Energies {
			stepGauge.Set(float64(s + 1))
			fmt.Printf("%6d %14.3f %14.3f %14.3f %10s\n",
				s+1, rep.Classic(), rep.PME(), rep.Total(), "-")
		}
		// The run's decomposition for /metrics, /runz and the manifest: the
		// same rows the split below is summed from.
		res.RecordObs(reg)
		c, pm := res.PhaseTotals()
		fmt.Printf("virtual wall: %.3f s | classic comp %.3f comm %.3f sync %.3f | pme comp %.3f comm %.3f sync %.3f\n",
			res.Wall, c.Comp, c.Comm, c.Sync, pm.Comp, pm.Comm, pm.Sync)
		if app.ProfileOut != "" {
			prof := res.Profile()
			prof.RecordObs(reg)
			buf, err := prof.Encode()
			app.WriteProfile(buf, err)
			setProfile(buf)
			a := prof.Attribution
			fmt.Printf("attribution: %s-bound | compute %.3f comm %.3f wait %.3f imbalance %.3f recovery %.3f of %.3f s\n",
				a.Dominant, a.ComputeSeconds, a.CommSeconds, a.WaitSeconds, a.ImbalanceSeconds, a.RecoverySeconds, a.WallSeconds)
			fmt.Printf("profile: written to %s\n", app.ProfileOut)
		}
		writeManifest()
		return
	}

	// Attach the host-clock phase timers after minimization so the
	// decomposition covers the measured dynamics only.
	engine.SetObs(reg)

	// Durable checkpoint ring: resume from the newest valid on-disk
	// checkpoint if one exists (corrupt newer files are skipped), else
	// start fresh and fill the ring as the run progresses.
	var ring *md.CheckpointRing
	startStep := 0
	if app.CkptDir != "" {
		ring = &md.CheckpointRing{Dir: app.CkptDir, Keep: app.CkptKeep, Obs: reg}
		cp, meta, skipped, err := ring.LoadNewest()
		switch {
		case err == nil:
			if err := engine.Restore(cp); err != nil {
				app.Fail(err)
			}
			startStep = meta.Step
			fmt.Printf("resumed from checkpoint at step %d (%d corrupt file(s) skipped)\n", startStep, skipped)
		case errors.Is(err, md.ErrNoCheckpoint):
			// fresh run
		default:
			app.Fail(err)
		}
	}
	if startStep >= *steps && *steps > 0 {
		fmt.Printf("checkpoint already at step %d; nothing to do\n", startStep)
		return
	}

	mon := guard.NewMonitor(guard.Config{
		Enabled:     *guardOn,
		Policy:      policy,
		DriftTol:    *guardDrift,
		DriftWindow: *guardWindow,
		InjectStep:  *guardInject,
	}, cfg.FF.ExactKernels)

	var traj *os.File
	if *xyz != "" {
		var err error
		traj, err = os.Create(*xyz)
		if err != nil {
			app.Fail(err)
		}
		defer traj.Close()
	}

	var wc, wp work.Counters
	fmt.Printf("%6s %14s %14s %14s %14s %10s\n", "step", "potential", "classic", "pme", "total", "temp(K)")
	engine.ComputeForces(&wc, &wp)
	for s := startStep + 1; s <= *steps; s++ {
		stepGauge.Set(float64(s))
		rep, err := engine.StepGuarded(mon, s, &wc, &wp)
		if err != nil {
			app.Fail(err)
		}
		fmt.Printf("%6d %14.3f %14.3f %14.3f %14.3f %10.1f\n",
			s, rep.Potential(), rep.Classic(), rep.PME(), rep.Total(), engine.Temperature())
		if traj != nil && s%*every == 0 {
			if err := sys.WriteXYZ(traj, engine.Pos, fmt.Sprintf("step %d E=%.3f", s, rep.Total())); err != nil {
				app.Fail(err)
			}
		}
		if ring != nil && s%app.CkptEvery == 0 {
			meta := md.DurableMeta{Step: s, RankAcct: make([][4]float64, 1)}
			if err := ring.Save(engine.Snapshot(), meta); err != nil {
				app.Fail(fmt.Errorf("checkpoint: %w", err))
			}
		}
	}
	for _, ev := range mon.Events() {
		fmt.Println(ev)
	}
	fmt.Printf("work: %d pair evals, %d list dist evals, %d FFT flops\n",
		wc.PairEvals, wc.ListDistEvals, wp.FFTOps)

	// The printed decomposition reads the same registry /metrics serves,
	// so the exposition sums match this report exactly.
	decomp := func(phase, bucket string) float64 {
		return reg.Value("repro_phase_seconds_total",
			obs.L("rank", "0"), obs.L("phase", phase), obs.L("bucket", bucket))
	}
	fmt.Printf("wall decomposition (host s): classic compute %.3f comm %.3f sync %.3f | pme compute %.3f comm %.3f sync %.3f\n",
		decomp("classic", "compute"), decomp("classic", "comm"), decomp("classic", "sync"),
		decomp("pme", "compute"), decomp("pme", "comm"), decomp("pme", "sync"))

	writeManifest()
}
