// tracer runs one parallel MD configuration under full event tracing and
// renders the per-rank timeline; optionally it writes a Chrome trace-event
// JSON file for chrome://tracing / Perfetto. With -faults, a fault
// scenario is injected and its windows appear as 'X' lanes on the
// timeline.
//
// Usage:
//
//	tracer -net tcp -p 4 -steps 2 -width 140 -o trace.json
//	tracer -net tcp -p 4 -steps 4 -faults 'straggler@0.1:0.4,node=1,slow=4'
//	tracer -net tcp -p 4 -steps 2 -kinds compute,sync -min-dur 0.001
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/md"
	"repro/internal/mpi"
	"repro/internal/pmd"
	"repro/internal/topol"
	"repro/internal/trace"
)

func main() {
	app := cli.New("tracer", flag.CommandLine)
	app.ClusterFlags()
	steps := flag.Int("steps", 2, "MD steps")
	useCMPI := flag.Bool("cmpi", false, "use the CMPI middleware")
	width := flag.Int("width", 120, "timeline width in characters")
	out := flag.String("o", "", "write Chrome trace JSON to this file")
	faultSpec := flag.String("faults", "", "fault scenario DSL (see internal/fault.ParseSpec) or @file.json")
	kindsFlag := flag.String("kinds", "", "comma-separated interval kinds to keep (compute,send,recv,sync,phase,fault); empty keeps all")
	minDur := flag.Float64("min-dur", 0, "drop intervals shorter than this (virtual seconds)")
	app.Parse(os.Args[1:])

	net, procs, cpus := app.Net, app.Procs, app.CPUs
	if *steps < 1 {
		app.Usagef("-steps must be >= 1 (got %d)", *steps)
	}
	mw := pmd.MiddlewareMPI
	if *useCMPI {
		mw = pmd.MiddlewareCMPI
	}
	if *minDur < 0 {
		app.Usagef("-min-dur must be >= 0 (got %g)", *minDur)
	}
	var kinds []trace.Kind
	if *kindsFlag != "" {
		for _, s := range strings.Split(*kindsFlag, ",") {
			s = strings.TrimSpace(s)
			if !trace.KnownKind(s) {
				app.Usagef("unknown trace kind %q (known: compute,send,recv,sync,phase,fault)", s)
			}
			kinds = append(kinds, trace.Kind(s))
		}
	}

	var inj *fault.Injector
	if *faultSpec != "" {
		sc, err := fault.ParseFlag(*faultSpec)
		if err != nil {
			app.Usagef("%v", err)
		}
		if inj, err = fault.NewInjector(sc, fault.Options{}); err != nil {
			app.Usagef("%v", err)
		}
	}

	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	md.Relax(sys, 80)
	cfg := md.PMEDefaultConfig()
	cfg.Temperature = 300

	col := &trace.Collector{}
	pcfg := pmd.Config{System: sys, MD: cfg, Steps: *steps, Middleware: mw, Observer: col}
	if inj != nil {
		pcfg.Faults = inj
		pcfg.Watchdog = mpi.DefaultWatchdog()
	}
	nodes := procs / cpus
	res, err := pmd.Run(
		cluster.Config{Nodes: nodes, CPUsPerNode: cpus, Net: net, Seed: 1},
		cluster.PentiumIII1GHz(),
		pcfg,
	)
	if err != nil {
		app.Fail(err)
	}

	if inj != nil {
		for _, e := range inj.Events(nodes, cpus, res.Wall) {
			if err := col.Add(e); err != nil {
				app.Fail(err)
			}
		}
	}

	// The filtered view (kinds, minimum duration) drives the rendering and
	// the export; the unfiltered collector keeps the full recording.
	view := col
	if len(kinds) > 0 || *minDur > 0 {
		view = col.Filter(kinds, *minDur)
	}

	c, pm := res.PhaseTotals()
	fmt.Printf("%s, p=%d (%d CPU/node), %d steps, %s middleware: classic %.3f s, pme %.3f s\n\n",
		net.Name, procs, cpus, *steps, mw, c.Wall, pm.Wall)
	if err := view.RenderTimeline(os.Stdout, *width); err != nil {
		app.Fail(err)
	}
	busy := view.Busy(trace.KindCompute)
	fmt.Printf("\n%d of %d events shown; rank-0 compute occupancy %.1f%%\n",
		view.Len(), col.Len(), 100*busy[0]/res.Wall)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			app.Fail(err)
		}
		defer f.Close()
		if err := view.WriteChromeJSON(f); err != nil {
			app.Fail(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}
