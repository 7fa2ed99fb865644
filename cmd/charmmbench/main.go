// charmmbench regenerates the paper's figures from the simulated cluster
// study.
//
// Usage:
//
//	charmmbench -figure all            # every figure, text tables
//	charmmbench -figure 5 -format csv  # one figure as CSV
//	charmmbench -figure 3 -steps 10 -procs 1,2,4,8
//	charmmbench -figure all -v -workers 4 -cpuprofile cpu.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/md"
	"repro/internal/obs"
)

func main() {
	app := cli.New("charmmbench", flag.CommandLine)
	figure := flag.String("figure", "all", "experiment to reproduce: 1..9, factorial, effects, ablation, scalelimit, ceiling, recovery, attribution, or all")
	format := flag.String("format", "text", "output format: text or csv")
	steps := flag.Int("steps", 0, "MD steps per measurement (default: the paper's 10)")
	procs := flag.String("procs", "", "comma-separated processor counts (default 1,2,4,8)")
	app.DecompFlag("decomposition for the paper figures: replicated or domain (ceiling sweeps both)")
	quick := flag.Bool("quick", false, "reduced protocol (2 steps, p ≤ 4) for smoke runs")
	seed := flag.Uint64("seed", 0, "override the deterministic seeds")
	outdir := flag.String("outdir", "", "also write every figure as CSV into this directory")
	workers := flag.Int("workers", 0, "cells in flight and compute-segment goroutines; 0 = one per CPU, 1 = serial; output is identical")
	app.KernelWorkersFlag("spread the physics kernels over this many host cores (0 and 1 run them inline; figure bytes identical for every value)")
	app.SkinFlags("auto-tune the neighbour-list skin on the study workload before any figure runs")
	verbose := flag.Bool("v", false, "print run-cache and physics-tape statistics to stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	tracefile := flag.String("trace", "", "write a Go execution trace to this file")
	app.ObsFlags()
	app.ProfileOutFlag("write the per-cell attribution profiles (JSON map keyed network/decomp/p) to this file; requires -figure attribution")
	app.Parse(os.Args[1:])

	if app.ProfileOut != "" && *figure != "attribution" {
		app.Usagef("-profile-out requires -figure attribution")
	}
	if *workers < 0 {
		app.Usagef("-workers must be >= 0, got %d", *workers)
	}
	opts := core.Options{Quick: *quick, Steps: *steps, SystemSeed: *seed, ClusterSeed: *seed,
		Workers: *workers, KernelWorkers: app.KernelWorkers, Obs: app.Reg, Decomp: app.Decomp}
	if *procs != "" {
		for _, tok := range strings.Split(*procs, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || v < 1 {
				app.Usagef("bad -procs entry %q", tok)
			}
			// Reject rank counts the chosen decomposition cannot tile on the
			// paper's PME mesh before any simulation starts.
			app.Tiling(v, md.PaperPME())
			opts.Procs = append(opts.Procs, v)
		}
	}

	f := core.FormatText
	switch *format {
	case "text":
	case "csv":
		f = core.FormatCSV
	default:
		app.Usagef("unknown format %q", *format)
	}
	// Validate -figure against the registry before the study is built: a
	// typo must not cost the 3552-atom set-up first.
	fig, known := figures.Lookup(*figure)
	switch {
	case *figure == "all":
		if f == core.FormatCSV {
			app.Usagef("-format csv needs a single -figure")
		}
	case !known:
		app.Usagef("unknown figure %q (known: %v, all)", *figure, core.FigureIDs())
	case f == core.FormatCSV && !fig.HasData():
		app.Usagef("figure %s is a diagram and has no CSV form", *figure)
	}
	defer app.StartObs(obs.ServeOptions{
		Status: func() []string { return []string{"charmmbench: figure " + *figure} },
	})()

	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			app.Fail(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			app.Fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *tracefile != "" {
		tf, err := os.Create(*tracefile)
		if err != nil {
			app.Fail(err)
		}
		if err := trace.Start(tf); err != nil {
			app.Fail(err)
		}
		defer trace.Stop()
	}

	start := time.Now()
	study := core.NewStudy(opts)
	// Skin pinning / tuning mutate the suite's MD config before the first
	// figure triggers a simulation; the choice applies to every run.
	if app.Skin > 0 {
		study.Suite.Cfg.MD.FF.ListCutoff = study.Suite.Cfg.MD.FF.CutOff + app.Skin
	}
	if app.TuneSkin {
		tuning := md.TuneSkin(study.System(), study.Suite.Cfg.MD, md.TuneOptions{Window: app.TuneWindow, Log: os.Stderr})
		study.Suite.Cfg.MD = tuning.Apply(study.Suite.Cfg.MD)
		fmt.Fprintf(os.Stderr, "tune-skin: chose %.1f Å (replay with -skin %.1f)\n", tuning.Chosen, tuning.Chosen)
	}
	figStart := time.Now()
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			app.Fail(err)
		}
		for _, entry := range figures.Registry() {
			// The paper report's data: diagrams have no rows, and the
			// hundreds-of-ranks sweeps are requested explicitly via -figure.
			if !entry.HasData() || !entry.Paper {
				continue
			}
			path := filepath.Join(*outdir, "figure_"+entry.ID+".csv")
			out, err := os.Create(path)
			if err != nil {
				app.Fail(err)
			}
			if err := study.Figure(entry.ID, out, core.FormatCSV); err != nil {
				app.Fail(err)
			}
			if err := out.Close(); err != nil {
				app.Fail(err)
			}
			fmt.Fprintln(os.Stderr, "wrote", path)
		}
	}
	var err error
	if *figure == "all" {
		err = study.All(os.Stdout)
	} else {
		err = study.Figure(*figure, os.Stdout, f)
	}
	if err != nil {
		app.Fail(err)
	}

	// All attribution cells are memoized by the run cache at this point, so
	// asking for the rows again costs no extra simulation.
	if app.ProfileOut != "" {
		rows, rerr := study.Suite.Rows(fig)
		if rerr != nil {
			app.Fail(fmt.Errorf("profile: %w", rerr))
		}
		profs := figures.Profiles(rows[0])
		buf, jerr := json.MarshalIndent(profs, "", "  ")
		app.WriteProfile(append(buf, '\n'), jerr)
		fmt.Fprintf(os.Stderr, "profile: %d cell profiles written to %s\n", len(profs), app.ProfileOut)
	}

	if *verbose {
		st := study.Stats()
		// Since figStart there were only batches and their rendering: cell
		// seconds over that wall is the mean number of cells in flight.
		fmt.Fprintf(os.Stderr,
			"charmmbench: %s wall, %d unique runs simulated, %d cache hits, %d tapes recorded, %d tape replays, %.2f cells in flight\n",
			time.Since(start).Round(time.Millisecond), st.Misses, st.Hits, st.TapeRecords, st.TapeReplays,
			study.Suite.CellSeconds()/time.Since(figStart).Seconds())
	}
	app.WriteManifest(func(m *obs.Manifest) {
		m.Seeds["system"] = *seed
		m.Config["figure"] = *figure
		m.Config["steps"] = *steps
		m.Config["quick"] = *quick
		m.Config["workers"] = *workers
		m.Config["kernel_workers"] = app.KernelWorkers
		m.Config["decomp"] = app.Decomp.String()
		m.Config["skin_angstrom"] = study.Suite.Cfg.MD.FF.ListCutoff - study.Suite.Cfg.MD.FF.CutOff
		m.Config["skin_tuned"] = app.TuneSkin
	})
	if *memprofile != "" {
		mf, err := os.Create(*memprofile)
		if err != nil {
			app.Fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(mf); err != nil {
			app.Fail(err)
		}
		if err := mf.Close(); err != nil {
			app.Fail(err)
		}
	}
}
