// Command hostbench is the repository's host-clock benchmark: four
// workloads that together exercise every layer (see README.md), timed as
// medians over fixed-work blocks, with correctness checks, and a separate
// traced run that times each layer from outside.
//
//	bash benchmark/run.sh                                   # everything, human-readable
//	bash benchmark/run.sh --workload seq_md --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --repeat 5                        # self-agreement table
//	bash benchmark/run.sh --smoke                           # every code path, seconds
//	bash benchmark/run.sh --write-reference                 # regenerate reference.json
//
// With --workload it runs that workload in this process and prints, as
// the last line of standard output, the result object BENCHMARK.json's
// contract describes. Without it, it runs every workload — each in its
// own process, untraced then traced — and prints every metric by name.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"

	"repro/benchmark/bstat"
)

// The four workloads, in the order the one command runs them.
// BENCHMARK.json records why each was chosen.
const (
	wSeqMD      = "seq_md"
	wDomSweep   = "dom_sweep"
	wFigureAll  = "figure_all"
	wServeMixed = "serve_mixed"
)

var workloadNames = []string{wSeqMD, wDomSweep, wFigureAll, wServeMixed}

// traceDir is where a traced run writes trace-<workload>.json, relative
// to the repository root run.sh changes to.
const traceDir = "benchmark/out"

// setInvocations is how many invocations of every workload make one set of
// a --repeat run; a set's value is their median.
const setInvocations = 3

type flags struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	repeat   int
	smoke    bool
	writeRef bool
}

func main() {
	// run.sh changes to the repository root, where the manifest is.
	os.Exit(run("BENCHMARK.json", os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its surroundings passed in. Every metric name, unit and
// bound comes from the manifest at manifestPath.
func run(manifestPath string, args []string, stdout, stderr io.Writer) int {
	var f flags
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&f.workload, "workload", "all", "one of seq_md, dom_sweep, figure_all, serve_mixed, or all (each in its own process)")
	fs.Uint64Var(&f.seed, "seed", referenceSeed, "seed of the generated inputs (systems, velocities, cluster, job stream)")
	fs.Float64Var(&f.seconds, "seconds", sizedForSeconds, "measuring time the fixed op lists are scaled to")
	fs.IntVar(&f.trace, "trace", 0, "1 = the traced run (per-layer metrics), 0 = the untraced run (end-to-end metrics)")
	fs.StringVar(&f.out, "out", "", "append each result record to this result-set file (input of benchmark/compare)")
	fs.IntVar(&f.repeat, "repeat", 0, "self-agreement: run this many sets of every workload back to back, every invocation on another seed counting up from --seed, and print each metric's largest deviation between sets against its bound")
	fs.BoolVar(&f.smoke, "smoke", false, "run every workload, untraced and traced, with one or two tiny ops")
	fs.BoolVar(&f.writeRef, "write-reference", false, "regenerate benchmark/reference.json (then rebuild)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || f.seconds <= 0 || f.trace < 0 || f.trace > 1 || f.repeat < 0 {
		fmt.Fprintln(stderr, "hostbench: bad arguments (see --help)")
		return 2
	}
	m, err := bstat.LoadManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}

	w := runtime.NumCPU()
	if w > 4 {
		w = 4
	}
	runtime.GOMAXPROCS(w)
	o := options{seed: f.seed, workers: w, traceDir: traceDir, sz: fullSizes(f.seconds)}

	ok := true
	switch {
	case f.writeRef:
		err = regenerateReference(o, stdout)
	case f.smoke:
		ok, err = runSmoke(m, o, stdout)
	case f.repeat > 0:
		err = runRepeat(m, f, stdout, stderr)
	case f.workload == "all":
		ok, err = runAll(f, stdout, stderr)
	default:
		var rep *report
		if rep, err = runWorkload(f.workload, o, f.trace == 1); err == nil {
			rec := rep.record(m)
			rep.print(stdout, m, rec)
			if f.out != "" {
				err = bstat.AppendRecord(f.out, rec)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process.
func runWorkload(name string, o options, traced bool) (*report, error) {
	var tr *tracer
	if traced {
		tr = newTracer(name)
	}
	var rep *report
	var err error
	switch {
	case name == wSeqMD && !traced:
		rep = runSeqMD(o)
	case name == wSeqMD:
		rep = traceSeqMD(o, tr)
	case name == wDomSweep && !traced:
		rep, err = runDomSweep(o)
	case name == wDomSweep:
		rep, err = traceDomSweep(o, tr)
	case name == wFigureAll && !traced:
		rep, err = runFigureAll(o)
	case name == wFigureAll:
		rep, err = traceFigureAll(o, tr)
	case name == wServeMixed && !traced:
		rep, err = runServeMixed(o)
	case name == wServeMixed:
		rep, err = traceServeMixed(o, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if traced {
		path, err := tr.write(o.traceDir)
		if err != nil {
			return nil, err
		}
		rep.note("%d spans written to %s", len(tr.snapshot()), path)
		for name, ms := range selfByNameMS(tr.snapshot()) {
			rep.note("self time %-24s %.3f ms", name, ms)
		}
	}
	return rep, nil
}

// runSmoke runs every workload both ways in this process with tiny sizes.
func runSmoke(m *bstat.Manifest, o options, stdout io.Writer) (bool, error) {
	o.sz = smokeSizes()
	o.smokeSuite = smokeSuite(o)
	ok := true
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(name, o, traced)
			if err != nil {
				return false, err
			}
			rec := rep.record(m)
			rep.print(stdout, m, rec)
			ok = ok && rec.Correct
		}
	}
	return ok, nil
}

// child runs one workload in a process of its own and returns its record.
func child(f flags, workload string, seed uint64, trace int, stdout, stderr io.Writer) (bstat.Record, error) {
	self, err := os.Executable()
	if err != nil {
		return bstat.Record{}, fmt.Errorf("locate own binary: %w", err)
	}
	tmp, err := os.CreateTemp("", "hostbench-record-*.jsonl")
	if err != nil {
		return bstat.Record{}, fmt.Errorf("create record file: %w", err)
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	cmd := exec.Command(self,
		"--workload", workload,
		"--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(f.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace),
		"--out", tmp.Name())
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Run(); err != nil {
		return bstat.Record{}, fmt.Errorf("%s (seed %d, trace %d): %w", workload, seed, trace, err)
	}
	recs, err := bstat.ReadSet(tmp.Name())
	if err != nil || len(recs) != 1 {
		return bstat.Record{}, fmt.Errorf("%s: child left %d records (%v)", workload, len(recs), err)
	}
	if f.out != "" {
		if err := bstat.AppendRecord(f.out, recs[0]); err != nil {
			return bstat.Record{}, err
		}
	}
	return recs[0], nil
}

// runAll is the one command: every workload in its own process, the
// untraced run first, then the traced one.
func runAll(f flags, stdout, stderr io.Writer) (bool, error) {
	ok := true
	for _, trace := range []int{0, 1} {
		for _, name := range workloadNames {
			rec, err := child(f, name, f.seed, trace, stdout, stderr)
			if err != nil {
				return false, err
			}
			ok = ok && rec.Correct
		}
	}
	return ok, nil
}

// runRepeat is the self-agreement mode: N sets of the same code, back to
// back, and how far they disagree against each metric's bound. Like the
// driver's sweeps, every invocation runs on another seed.
func runRepeat(m *bstat.Manifest, f flags, stdout, stderr io.Writer) error {
	sets := make([][]bstat.Record, f.repeat)
	for set := range sets {
		for i := 0; i < setInvocations; i++ {
			seed := f.seed + uint64(set*setInvocations+i)
			for _, name := range workloadNames {
				fmt.Fprintf(stderr, "hostbench: set %d/%d invocation %d/%d %s seed %d\n", set+1, f.repeat, i+1, setInvocations, name, seed)
				rec, err := child(f, name, seed, 0, io.Discard, stderr)
				if err != nil {
					return err
				}
				if !rec.Correct || rec.Truncated {
					return fmt.Errorf("set %d %s: incorrect or cut short (%d of %d ops failed, truncated=%t)", set+1, name, rec.Failed, rec.Attempted, rec.Truncated)
				}
				sets[set] = append(sets[set], rec)
			}
		}
	}
	rows := bstat.Agreement(m, sets)
	bstat.WriteAgreement(stdout, rows)
	for _, r := range rows {
		if !r.Holds {
			return fmt.Errorf("%s %s deviates %.3f between sets, over its bound %.2f", r.Workload, r.Metric.Name, r.MaxDev, r.Metric.Bound)
		}
	}
	return nil
}

// regenerateReference reruns the three deterministic workloads at the
// reference seed, one op each, and stores what they produced.
func regenerateReference(o options, stdout io.Writer) error {
	o.seed = referenceSeed
	o.sz.setupReps, o.sz.seqPairs, o.sz.domOps, o.sz.figOps = 1, 1, 1, 1
	ref := reference{Seed: referenceSeed}
	for _, name := range []string{wSeqMD, wDomSweep, wFigureAll} {
		rep, err := runWorkload(name, o, false)
		if err != nil {
			return err
		}
		switch name {
		case wSeqMD:
			ref.SeqMD = rep.produced.SeqMD
		case wDomSweep:
			ref.DomSweep = rep.produced.DomSweep
		case wFigureAll:
			ref.FigureAll = rep.produced.FigureAll
		}
	}
	if err := writeReference(&ref); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s; rebuild to embed it\n", referencePath)
	return nil
}
