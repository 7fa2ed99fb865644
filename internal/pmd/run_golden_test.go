package pmd

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/md"
	"repro/internal/netmodel"
)

// The arithmetic oracle of the parallel engine. testdata/run_golden.json
// holds one SHA-256 per case over the math.Float64bits of everything a
// plain Run reports: Wall, every per-rank accounting field, every per-rank
// step timing, the energies and the final positions. It was captured while
// the replicated ranks still evaluated their own partitions of the physics
// (every rank its classic block, spread, slab FFTs, spectrum lines and
// interpolation, merged through the simulated collectives), which pins
// every virtual second to the counters those ranks charged. It was
// recaptured once when every run's trajectory became the sequential
// engine's: the energies and final positions moved, and a digest of the
// wall, accounting and step timings alone was equal before and after.
// Each case must produce its digest four ways: recording a tape and
// replaying it, at HostWorkers 1 and at 4. UPDATE_GOLDEN=1
// rewrites the file; do that only to add cases, from a tree where the
// existing ones pass.
const runGoldenPath = "testdata/run_golden.json"

// runGoldenCase is one workload of the golden.
type runGoldenCase struct {
	name  string
	p     int
	steps int
	cfg   Config
}

func runGoldenCases() []runGoldenCase {
	var out []runGoldenCase
	base := func(decomp DecompKind, mw MiddlewareKind) Config {
		return Config{Decomp: decomp, Middleware: mw}
	}
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, v := range []struct {
			tag string
			mw  MiddlewareKind
		}{{"mpi", MiddlewareMPI}, {"cmpi", MiddlewareCMPI}, {"modern", MiddlewareModern}} {
			out = append(out, runGoldenCase{
				name: fmt.Sprintf("replicated/%s/p%d", v.tag, p), p: p, steps: 8,
				cfg: base(DecompReplicated, v.mw),
			})
		}
	}
	// The domain cases pin the sparse all-to-alls over real halo, migration
	// and pencil matrices: MPI's pairwise rounds and CMPI's fenced flood.
	for _, p := range []int{4, 8} {
		for _, v := range []struct {
			tag string
			mw  MiddlewareKind
		}{{"mpi", MiddlewareMPI}, {"cmpi", MiddlewareCMPI}} {
			out = append(out, runGoldenCase{
				name: fmt.Sprintf("domain/%s/p%d", v.tag, p), p: p, steps: 8,
				cfg: base(DecompDomain, v.mw),
			})
		}
	}
	// The workload of the pair-list cache's generation test: three list
	// rebuilds in 20 steps.
	out = append(out, runGoldenCase{
		name: "replicated/mpi/p2/rebuilds", p: 2, steps: 20,
		cfg: base(DecompReplicated, MiddlewareMPI),
	})
	return out
}

func (c runGoldenCase) run(t *testing.T, workers int, tape *Tape) *Result {
	t.Helper()
	cfg := c.cfg
	cfg.System = testSystem(100, 24, 1)
	cfg.MD = testMDConfig()
	cfg.MD.FF.ListCutoff = 9.5 // a thin skin: the first rebuild comes early
	cfg.Steps = c.steps
	cfg.HostWorkers = workers
	cfg.Tape = tape
	res, err := Run(clusterCfg(c.p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return res
}

// rebuilds counts the neighbour-list rebuilds after the first build.
func (c runGoldenCase) rebuilds(t *testing.T) int {
	t.Helper()
	cfg := c.cfg
	cfg.System = testSystem(100, 24, 1)
	cfg.MD = testMDConfig()
	cfg.MD.FF.ListCutoff = 9.5
	cfg.Steps = c.steps
	gen := 0
	cfg.onStep = func(w *worker, step int, _ StepTiming, _ md.EnergyReport) {
		if w.me() == 0 {
			gen = w.cur.listGen
		}
	}
	if _, err := Run(clusterCfg(c.p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), cfg); err != nil {
		t.Fatal(err)
	}
	return gen
}

func runDigest(r *Result) string {
	b := newBitsHash()
	b.f(r.Wall)
	b.i(r.P, len(r.Acct))
	for _, a := range r.Acct {
		b.f(a.Comp, a.Comm, a.Sync, a.Lost)
		b.i(int(a.BytesSent), int(a.BytesRecv))
	}
	b.i(len(r.Timings))
	for _, ts := range r.Timings {
		b.i(len(ts))
		for _, st := range ts {
			for _, s := range []PhaseSample{st.Classic, st.PME} {
				b.f(s.Comp, s.Comm, s.Sync, s.Wall)
				b.i(int(s.Bytes))
			}
		}
	}
	b.i(len(r.Energies))
	for _, e := range r.Energies {
		b.f(e.FF.Bond, e.FF.Angle, e.FF.Dihedral, e.FF.Improper, e.FF.LJ, e.FF.Elec, e.FF.LJ14, e.FF.Elec14,
			e.Recip, e.Self, e.ExclCorr, e.Background, e.Kinetic)
	}
	b.i(len(r.FinalPos))
	for _, p := range r.FinalPos {
		b.f(p.X, p.Y, p.Z)
	}
	return b.sum()
}

func TestRunGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bit-for-bit digests are pinned on amd64 only")
	}
	cases := runGoldenCases()
	for i, want := range map[int]int{0: 1, len(cases) - 1: 3} {
		if n := cases[i].rebuilds(t); n < want {
			t.Fatalf("%s: %d list rebuilds, want at least %d", cases[i].name, n, want)
		}
	}
	got := map[string]string{}
	for _, c := range cases {
		var digest string
		for _, workers := range []int{1, 4} {
			tape := NewTape()
			for _, mode := range []string{"record", "replay"} {
				d := runDigest(c.run(t, workers, tape))
				if !tape.Complete() {
					t.Fatalf("%s: no tape after the %s run", c.name, mode)
				}
				if digest == "" {
					digest = d
				} else if d != digest {
					t.Errorf("%s: %s at HostWorkers %d differs from the first run", c.name, mode, workers)
				}
			}
		}
		got[c.name] = digest
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(runGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d digests)", runGoldenPath, len(got))
		return
	}
	data, err := os.ReadFile(runGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if got[c.name] != want[c.name] {
			t.Errorf("%s: output bits differ from the golden", c.name)
		}
	}
}
