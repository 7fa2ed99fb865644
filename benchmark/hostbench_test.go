package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/benchmark/bstat"
	"repro/internal/topol"
)

// manifestPath is BENCHMARK.json as seen from this package's directory.
const manifestPath = "../BENCHMARK.json"

func loadManifest(t *testing.T) *bstat.Manifest {
	t.Helper()
	m, err := bstat.LoadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSelfTime(t *testing.T) {
	// root [0,100]; a [10,40] and b [30,60] overlap on [30,40]; c [70,80];
	// a has a child d [15,25]; e is an orphan of a span that never closed.
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "kid", StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 0, Name: "kid", StartNS: 30, EndNS: 60},
		{ID: 3, Parent: 0, Name: "kid", StartNS: 70, EndNS: 80},
		{ID: 4, Parent: 1, Name: "leaf", StartNS: 15, EndNS: 25},
		{ID: 5, Parent: 99, Name: "orphan", StartNS: 0, EndNS: 5},
	}
	self := selfTimeNS(spans)
	want := map[int]int64{
		0: 100 - (50 + 10), // the union of a and b covers [10,60]
		1: 30 - 10,
		2: 30,
		3: 10,
		4: 10,
		5: 5,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	byName := selfByNameMS(spans)
	if got := byName["kid"] * 1e6; math.Abs(got-60) > 1e-6 {
		t.Errorf("kid self time %g ns, want 60", got)
	}
	if got := durationsMS(spans, "kid"); len(got) != 3 || got[0]*1e6 != 30 {
		t.Errorf("durations of kid = %v", got)
	}
}

func TestTracerNilIsUntraced(t *testing.T) {
	var tr *tracer
	id := tr.start("x", -1)
	tr.end(id)
	if id != -1 || tr.snapshot() != nil {
		t.Errorf("nil tracer recorded something: id %d", id)
	}
	real := newTracer("w")
	a := real.start("outer", -1)
	b := real.start("inner", a)
	real.end(b)
	if got := real.snapshot(); len(got) != 1 || got[0].Name != "inner" || got[0].Parent != a || got[0].Workload != "w" {
		t.Errorf("open span leaked into the snapshot: %+v", got)
	}
	real.end(a)
	path, err := real.write(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(buf, &back); err != nil || len(back) != 2 {
		t.Errorf("trace file holds %d spans (%v)", len(back), err)
	}
}

func TestServeStream(t *testing.T) {
	sz := fullSizes(sizedForSeconds)
	const clients = 2
	a := serveStream(7, clients, sz)
	if b := serveStream(7, clients, sz); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different streams")
	}
	if b := serveStream(8, clients, sz); reflect.DeepEqual(a, b) {
		t.Fatal("two seeds gave the same stream")
	}
	seen := map[string]bool{}
	var work [clients]map[[5]interface{}]int
	for c, list := range a {
		work[c] = map[[5]interface{}]int{}
		var uniq, repeats int
		for i, job := range list {
			if job.repeatOf >= 0 {
				repeats++
				if job.repeatOf >= i || list[job.repeatOf].repeatOf != -1 || list[job.repeatOf].spec.Key() != job.spec.Key() {
					t.Fatalf("client %d job %d repeats %d, which is not an earlier unique job with its spec", c, i, job.repeatOf)
				}
				continue
			}
			uniq++
			spec := job.spec
			if err := spec.Normalize(); err != nil {
				t.Fatalf("client %d job %d: invalid spec: %v", c, i, err)
			}
			if !reflect.DeepEqual(spec, job.spec) {
				t.Errorf("client %d job %d: spec is not in canonical form: %+v", c, i, job.spec)
			}
			if _, mesh := topol.NewSolvatedBox(spec.Atoms, spec.Seed+1); !validSpec(&spec, mesh) {
				t.Fatalf("client %d job %d: %q cannot tile its PME mesh", c, i, spec.Key())
			}
			if seen[spec.Key()] {
				t.Fatalf("client %d job %d: spec %q is not unique", c, i, spec.Key())
			}
			seen[spec.Key()] = true
			work[c][[5]interface{}{spec.Kind, spec.Atoms, spec.Steps, spec.Procs, spec.MW + spec.Observable}]++
		}
		if repeats*2 != uniq || repeats*3 != len(list) {
			t.Errorf("client %d: %d repeats of %d jobs, want one third", c, repeats, len(list))
		}
	}
	// Every client does the same work: every cost-driving combination
	// exactly once per deck.
	if !reflect.DeepEqual(work[0], work[1]) {
		t.Error("the two clients' lists hold different cost-driving combinations")
	}
	for combo, n := range work[0] {
		if n != sz.serveDecks {
			t.Errorf("combination %v appears %d times, want %d", combo, n, sz.serveDecks)
		}
	}
	// The warm-up specs build every system the lists use and collide with
	// no timed job.
	systems := map[[2]uint64]bool{}
	for _, spec := range warmSpecs(clients, sz) {
		if err := spec.Normalize(); err != nil || seen[spec.Key()] {
			t.Errorf("warm-up spec %+v: invalid or collides with a timed job (%v)", spec, err)
		}
		systems[[2]uint64{uint64(spec.Atoms), spec.Seed}] = true
	}
	for _, list := range a {
		for _, job := range list {
			if !systems[[2]uint64{uint64(job.spec.Atoms), job.spec.Seed}] {
				t.Fatalf("spec %q uses a system the warm-up does not build", job.spec.Key())
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestWithinContract holds BENCHMARK.json to the limits of the
// driver's contract and to the workloads this binary runs.
func TestManifestWithinContract(t *testing.T) {
	m := loadManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("manifest workloads %v, binary runs %v", names, workloadNames)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if m.RunSeconds != sizedForSeconds {
		t.Errorf("run_seconds %d, the op lists are sized for %d", m.RunSeconds, sizedForSeconds)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) || !reflect.DeepEqual(m.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("paths %v command %v", m.Paths, m.Command)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is empty, multi-line or %d > 200 characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q bound %g", d.Name, d.Unit, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range m.PerLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || d.Bound != 0 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer %s: unit %q bound %g better %q", d.Name, d.Unit, d.Bound, d.Better)
		}
	}
}

// TestReadmeNamesEverything keeps README.md in step with the manifest.
func TestReadmeNamesEverything(t *testing.T) {
	m := loadManifest(t)
	buf, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(buf)
	for _, w := range m.Workloads {
		if !strings.Contains(readme, "`"+w.Name+"`") {
			t.Errorf("README.md does not name workload %s", w.Name)
		}
	}
	for _, d := range append(append([]bstat.MetricDef(nil), m.EndToEnd...), m.PerLayer...) {
		if !strings.Contains(readme, d.Name) && !strings.HasPrefix(d.Name, "core.figure_ms.") {
			t.Errorf("README.md does not name metric %s", d.Name)
		}
	}
}

func TestRecordMarksGaps(t *testing.T) {
	m := loadManifest(t)
	o := options{seed: 1, workers: 2}
	r := newReport(wSeqMD, o, false)
	r.attempted = 10
	for _, d := range m.EndToEnd {
		r.scalar(d.Name, 1.5)
	}
	r.scalar(m.PerLayer[0].Name, 3) // printed by an untraced run, not reported
	if rec := r.record(m); !rec.Correct || len(rec.Metrics) != len(m.EndToEnd) || rec.Metrics["op_ms"].Unit != "ms" {
		t.Errorf("complete report: %+v", rec)
	}
	r.scalar("op_ms", math.NaN())
	if rec := r.record(m); rec.Correct || rec.Metrics["op_ms"].Value != 0 {
		t.Errorf("a NaN metric left the run correct: %+v", rec)
	}
	delete(r.metrics, "op_ms")
	if rec := r.record(m); rec.Correct {
		t.Error("a missing end-to-end metric left the run correct")
	}
	r.scalar("op_ms", 1)
	r.scalar("op_msec", 1)
	if rec := r.record(m); rec.Correct || len(rec.Metrics) != len(m.EndToEnd) {
		t.Error("a metric the manifest does not list left the run correct or reached the result")
	}
	delete(r.metrics, "op_msec")
	r.truncated = true
	if rec := r.record(m); !rec.Correct || !rec.Truncated {
		t.Errorf("a truncated run: correct=%v truncated=%v, want both", rec.Correct, rec.Truncated)
	}
	r.check("hard", true, false, "fails")
	if r.record(m).Correct {
		t.Error("a failed hard check left the run correct")
	}

	tr := newReport(wSeqMD, o, true)
	tr.attempted = 1
	tr.scalar("md.step_p50_ms", 2)
	tr.check("soft", false, false, "differs")
	rec := tr.record(m)
	if !rec.Correct || len(rec.Metrics) != len(m.PerLayer) || rec.Metrics["md.step_p50_ms"].Value != 2 {
		t.Errorf("traced report: correct=%v with %d metrics, want %d", rec.Correct, len(rec.Metrics), len(m.PerLayer))
	}
	if v := rec.Metrics["serve.submit_ms"]; v.Value != 0 || v.Unit != "ms" {
		t.Errorf("a metric another workload measures reads %+v, want 0 ms", v)
	}
}

// TestSmoke runs every workload, untraced and traced, with tiny sizes and
// checks that the printed result carries every named metric with its
// unit, that nothing failed, that no end-to-end metric reads 0, and that
// every per-layer metric of the manifest is measured by some workload.
func TestSmoke(t *testing.T) {
	m := loadManifest(t)
	o := options{seed: 3, workers: 2, traceDir: t.TempDir(), sz: smokeSizes()}
	var mu sync.Mutex
	measured := map[string]int{} // per-layer name → workloads measuring it
	t.Run("workloads", func(t *testing.T) {
		// Two groups side by side: the one suite the second group shares is
		// not safe for concurrent use, and building it is a third of the time.
		t.Run("engine+serve", func(t *testing.T) {
			t.Parallel()
			smokeWorkloads(t, m, o, &mu, measured, wSeqMD, wServeMixed)
		})
		t.Run("suite", func(t *testing.T) {
			t.Parallel()
			o := o
			o.smokeSuite = smokeSuite(o)
			smokeWorkloads(t, m, o, &mu, measured, wFigureAll, wDomSweep)
		})
	})
	for _, d := range m.PerLayer {
		want := 1
		if strings.HasPrefix(d.Name, "host.") || strings.HasPrefix(d.Name, "trace.") {
			want = len(workloadNames)
		}
		if measured[d.Name] != want {
			t.Errorf("per-layer metric %s is measured by %d workloads, want %d", d.Name, measured[d.Name], want)
		}
	}
}

func smokeWorkloads(t *testing.T, m *bstat.Manifest, o options, mu *sync.Mutex, measured map[string]int, names ...string) {
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(name, o, traced)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			rep.print(&out, m, rep.record(m))
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int                   `json:"attempted"`
				Failed    *int                   `json:"failed"`
				Metrics   map[string]bstat.Value `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result object: %v\n%s", name, traced, err, out.String())
			}
			if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
				t.Errorf("%s traced=%v: not a clean run:\n%s", name, traced, out.String())
			}
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in %q, want %q", name, traced, d.Name, v.Unit, d.Unit)
				}
				if !traced && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", name, d.Name)
				}
				if _, have := rep.metrics[d.Name]; traced && have {
					mu.Lock()
					measured[d.Name]++
					mu.Unlock()
				}
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"stray"},
	} {
		if code := run(manifestPath, args, &out, &errOut); code == 0 {
			t.Errorf("run(%v) = 0", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("a rejected invocation printed a result: %s", out.String())
	}
}

func TestSkeletonPattern(t *testing.T) {
	for _, p := range []int{16, 256} {
		halo, row, col := skeletonPattern(p)
		a, b, c := factor3(p)
		p2, p3 := factor2(p)
		if a*b*c != p || p2*p3 != p {
			t.Fatalf("p=%d factors %d×%d×%d and %d×%d", p, a, b, c, p2, p3)
		}
		for i := 0; i < p; i++ {
			if halo[i][i]+row[i][i]+col[i][i] != 0 {
				t.Fatalf("p=%d: rank %d exchanges with itself", p, i)
			}
			for j := 0; j < p; j++ {
				if halo[i][j] != halo[j][i] || row[i][j] != row[j][i] || col[i][j] != col[j][i] {
					t.Fatalf("p=%d: pattern not symmetric at %d,%d", p, i, j)
				}
			}
		}
		if got, want := nonZero(row), int64(p*(p3-1)); got != want {
			t.Errorf("p=%d: %d row exchanges, want %d", p, got, want)
		}
		if got, want := nonZero(col), int64(p*(p2-1)); got != want {
			t.Errorf("p=%d: %d column exchanges, want %d", p, got, want)
		}
		if p == 256 && nonZero(halo) != 256*26 {
			t.Errorf("p=256: %d halo exchanges, want 26 per rank", nonZero(halo))
		}
	}
}
