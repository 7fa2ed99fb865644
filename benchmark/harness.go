package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/benchmark/bstat"
	"repro/internal/figures"
	"repro/internal/stats"
)

// options are the inputs of one workload run.
type options struct {
	seed     uint64
	workers  int    // W = min(nproc, 4): GOMAXPROCS, clients, worker threads
	traceDir string // where a traced run writes its spans
	sz       sizes

	// smokeSuite, set only by a smoke pass, stands in for every suite and
	// study construction (see smokeSuite in sizes.go).
	smokeSuite *figures.Suite
}

// measured is one metric as the harness took it: a scalar, or the median
// of n block values with its quartiles.
type measured struct {
	value  float64
	q1, q3 float64
	n      int // 0 = scalar
}

// check is one correctness check. A failed hard check marks the run
// incorrect and counts its ops as failed; a soft one only prints.
type check struct {
	name   string
	ok     bool
	hard   bool
	detail string
}

// report is everything one workload run produced.
type report struct {
	workload  string
	seed      uint64
	traced    bool
	workers   int
	attempted int
	failed    int
	truncated bool // the wall cap cut the op list short
	metrics   map[string]measured
	checks    []check
	notes     []string
	produced  reference // the outputs --write-reference stores
}

func newReport(workload string, o options, traced bool) *report {
	return &report{workload: workload, seed: o.seed, traced: traced, workers: o.workers, metrics: map[string]measured{}}
}

// scalar records a single-sample metric. The name must be one
// BENCHMARK.json lists, which also holds its unit.
func (r *report) scalar(name string, v float64) {
	r.metrics[name] = measured{value: v}
}

// blocks records a metric as the median over block values, keeping the
// quartiles and the count beside it.
func (r *report) blocks(name string, vs []float64) {
	r.metrics[name] = measured{
		value: bstat.Median(vs),
		q1:    bstat.Percentile(vs, 0.25), q3: bstat.Percentile(vs, 0.75), n: len(vs),
	}
}

// opBlocks records the end-to-end metrics of a workload whose blocks are
// single ops: op_ms is the median over them, jobs_per_s all of them over
// their summed wall — the mean, which a slow minority of ops does move.
func (r *report) opBlocks(opMS []float64, alloc uint64, setup float64) {
	var wallMS float64
	for _, ms := range opMS {
		wallMS += ms
	}
	r.attempted = len(opMS)
	r.blocks("op_ms", opMS)
	r.scalar("jobs_per_s", float64(len(opMS))/(wallMS/1e3))
	r.scalar("alloc_mb_per_op", float64(alloc)/mib/float64(len(opMS)))
	r.scalar("setup_s", setup)
}

func (r *report) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) check(name string, hard, ok bool, format string, args ...interface{}) {
	r.checks = append(r.checks, check{name: name, ok: ok, hard: hard, detail: fmt.Sprintf(format, args...)})
}

// must records a hard check on the run as a whole: when it fails, every
// op attempted counts as failed. Call it once attempted is set.
func (r *report) must(name string, ok bool, format string, args ...interface{}) {
	r.check(name, true, ok, format, args...)
	if !ok {
		r.failed = r.attempted
	}
}

// correct reports whether every hard check held and no op failed.
func (r *report) correct() bool {
	for _, c := range r.checks {
		if c.hard && !c.ok {
			return false
		}
	}
	return r.failed == 0
}

// record converts the report into the driver-facing result: exactly the
// manifest's end-to-end metrics for an untraced run, exactly its per-layer
// metrics for a traced one. An end-to-end metric the run did not measure,
// or any metric the manifest does not list, is a bug in the harness and
// marks the run incorrect; a per-layer metric another workload measures
// reads 0.
func (r *report) record(m *bstat.Manifest) bstat.Record {
	rec := bstat.Record{
		Workload: r.workload, Seed: r.seed, Trace: r.traced, Truncated: r.truncated,
		Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]bstat.Value{},
	}
	ok := r.correct()
	put := func(def bstat.MetricDef, required bool) {
		v, have := r.metrics[def.Name]
		if !have || math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			if required || have {
				ok = false
				fmt.Fprintf(os.Stderr, "hostbench: %s: metric %s missing or not finite\n", r.workload, def.Name)
			}
			v.value = 0
		}
		rec.Metrics[def.Name] = bstat.Value{Value: v.value, Unit: def.Unit}
	}
	known := map[string]bool{}
	for _, d := range m.EndToEnd {
		known[d.Name] = true
		if !r.traced {
			put(d, true)
		}
	}
	for _, d := range m.PerLayer {
		known[d.Name] = true
		if r.traced {
			put(d, false)
		}
	}
	for name := range r.metrics {
		if !known[name] {
			ok = false
			fmt.Fprintf(os.Stderr, "hostbench: %s: metric %s is not in the manifest\n", r.workload, name)
		}
	}
	if rec.Attempted < 1 {
		rec.Attempted, rec.Failed, ok = 1, 1, false
	}
	rec.Correct = ok
	return rec
}

// print writes the human-readable report followed — as the last line — by
// rec, the run's record(), as the result object the driver parses.
func (r *report) print(w io.Writer, m *bstat.Manifest, rec bstat.Record) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d  W=%d  %s\n", r.workload, r.seed, r.workers, mode)
	line := func(def bstat.MetricDef, bound bool) {
		m, ok := r.metrics[def.Name]
		if !ok {
			return
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-9s", def.Name, m.value, def.Unit)
		if m.n > 0 {
			fmt.Fprintf(w, " q1 %.6g q3 %.6g n=%d", m.q1, m.q3, m.n)
		}
		fmt.Fprintf(w, "  (%s is better", def.Better)
		if bound {
			fmt.Fprintf(w, ", bound %.2f", def.Bound)
		}
		fmt.Fprintln(w, ")")
	}
	for _, d := range m.EndToEnd {
		line(d, true)
	}
	for _, d := range m.PerLayer {
		line(d, false)
	}
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d\n", r.attempted, r.failed)
	if r.truncated {
		fmt.Fprintf(w, "  TRUNCATED: the %v wall cap cut the op list short; the numbers are of less work\n", wallCap)
	}
	for _, c := range r.checks {
		verdict := "ok"
		switch {
		case !c.ok && c.hard:
			verdict = "FAILED"
		case !c.ok:
			verdict = "differs (reported, not failed)"
		}
		fmt.Fprintf(w, "  check %-28s %s  %s\n", c.name, verdict, c.detail)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]bstat.Value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics}
	buf, err := json.Marshal(out)
	if err != nil {
		// Every value was checked finite in record(); this cannot happen.
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", buf)
}

// ---------------------------------------------------------------------------
// Timing helpers

// timed collects garbage, then runs fn and returns its wall seconds and
// the bytes it allocated. The MemStats reads sit outside the timed
// interval.
func timed(fn func()) (sec float64, allocBytes uint64) {
	runtime.GC()
	a0 := totalAlloc()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	return d.Seconds(), totalAlloc() - a0
}

// totalAlloc returns the cumulative bytes of heap objects allocated.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// wallCap bounds the timed phase of a run. Work is fixed, not duration:
// the op lists fill --seconds on the reference host and take as long as
// they take elsewhere. The cap, looked at only between blocks, is there so
// that a far slower host still ends inside the driver's 180 s; a run it
// cuts short says so in its record.
const wallCap = 100 * time.Second

// capped reports whether a timed phase that began at start is over the cap.
func capped(start time.Time) bool { return time.Since(start) > wallCap }

// setupMedian runs build n times and returns the median wall seconds and
// every value built.
func setupMedian[T any](n int, build func() T) (float64, []T) {
	var secs []float64
	var out []T
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		v := build()
		secs = append(secs, time.Since(t0).Seconds())
		out = append(out, v)
	}
	return bstat.Median(secs), out
}

const mib = 1 << 20

// mean is the arithmetic mean, 0 for no values.
func mean(vs []float64) float64 { return stats.Summarize(vs).Mean }

// ---------------------------------------------------------------------------
// Host counters

// hostSnap is the process- and machine-level state the host.* metrics are
// differences of.
type hostSnap struct {
	wall     time.Time
	cpu      time.Duration
	gcCycles uint32
	gcPause  uint64
	steal    float64
}

func snapHost() hostSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return hostSnap{wall: time.Now(), cpu: cpuTime(), gcCycles: m.NumGC, gcPause: m.PauseTotalNs, steal: stealSeconds()}
}

// hostMetrics records the host.* metrics of the interval since from.
func (r *report) hostMetrics(from hostSnap) {
	to := snapHost()
	wall := to.wall.Sub(from.wall).Seconds()
	r.scalar("host.cpu_share", (to.cpu-from.cpu).Seconds()/(wall*float64(r.workers)))
	r.scalar("host.peak_rss_mb", peakRSSMB())
	r.scalar("host.gc_cycles", float64(to.gcCycles-from.gcCycles))
	r.scalar("host.gc_pause_ms", float64(to.gcPause-from.gcPause)/1e6)
	r.scalar("host.steal_s", to.steal-from.steal)
}

// stealSeconds reads the machine-wide stolen CPU time from /proc/stat (0
// where there is none to read).
func stealSeconds() float64 {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// overheadShare is (traced − untraced) / untraced over two sets of block
// values taken alternately in one process.
func overheadShare(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	u := bstat.Median(untraced)
	if u == 0 {
		return 0
	}
	return (bstat.Median(traced) - u) / u
}
