package pmd

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/vec"
)

// The bits oracle of the recovery driver. testdata/resilient_golden.json
// holds one SHA-256 per case over the math.Float64bits of everything
// RunResilient prices: Wall, every per-rank accounting quad, the Lost
// breakdown, every Recoveries/Local field (a checkpoint pointer counts as
// present or absent), the resume info, the merged energies and the final
// positions. It was captured on the code BEFORE the driver was rewritten
// around one rewind, so a digest that moves means a float is now added in
// a different order. It was recaptured once, when the kernels lost their
// serial path: the energies and final positions moved at summation-order
// level, and every priced float (wall, accounting, Lost breakdown, events)
// held. The three local/* digests were recaptured once more when the
// unpriced byte fields (buddy rank, restored and re-sent bytes) left
// recover.Event; a digest of the remaining fields was equal before and
// after. Every digest, and every checkpoint file's, was recaptured once
// more when every run's trajectory became the sequential engine's: the
// energies, final positions and checkpointed states moved, and a digest
// of every priced float (wall, accounting, Lost breakdown, events) was
// equal before and after. UPDATE_GOLDEN=1 rewrites the file; do that only to add cases,
// from a tree where the existing ones pass.
const resilientGoldenPath = "testdata/resilient_golden.json"

type bitsHash struct{ h hash.Hash }

func newBitsHash() bitsHash { return bitsHash{sha256.New()} }

func (b bitsHash) f(vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		b.h.Write(buf[:])
	}
}

func (b bitsHash) i(vs ...int) {
	for _, v := range vs {
		b.f(float64(v))
	}
}

func (b bitsHash) sum() string { return hex.EncodeToString(b.h.Sum(nil)) }

func resilientDigest(r *ResilientResult) string {
	b := newBitsHash()
	b.f(r.Wall)
	b.i(r.Ranks, len(r.Acct))
	for _, a := range r.Acct {
		b.f(a.Comp, a.Comm, a.Sync, a.Lost)
	}
	b.f(r.Breakdown.Rewind, r.Breakdown.Replay, r.Breakdown.Park)
	b.i(len(r.Recoveries))
	for _, ev := range r.Recoveries {
		b.i(ev.CrashedRank, ev.RewindStep)
		b.f(ev.DetectedAt, ev.Lost)
		if ev.Checkpoint != nil {
			b.i(1)
		} else {
			b.i(0)
		}
	}
	b.i(len(r.Local))
	for _, ev := range r.Local {
		b.i(ev.Rank, ev.EpochStep, ev.ResumeStep, ev.ReplaySteps)
		b.f(ev.Detect, ev.Restore, ev.Replay, ev.Park)
	}
	if r.Resumed != nil {
		b.i(1, r.Resumed.Step, r.Resumed.SkippedCheckpoints)
		b.f(r.Resumed.LostOnDisk)
	} else {
		b.i(0)
	}
	// The literal 0 stands where the digest hashed the count of numeric
	// guard trips, which no run can have any more; it keeps the captured
	// digests valid.
	b.i(0, r.CheckpointInterval)
	if r.IntervalTuned {
		b.i(1)
	} else {
		b.i(0)
	}
	b.i(len(r.Energies))
	for _, e := range r.Energies {
		b.f(e.FF.Bond, e.FF.Angle, e.FF.Dihedral, e.FF.Improper, e.FF.LJ, e.FF.Elec, e.FF.LJ14, e.FF.Elec14,
			e.Recip, e.Self, e.ExclCorr, e.Background, e.Kinetic)
	}
	if r.Final != nil {
		b.i(len(r.Final.FinalPos))
		for _, p := range r.Final.FinalPos {
			b.f(p.X, p.Y, p.Z)
		}
	}
	return b.sum()
}

// resilientGoldenRuns executes the matrix and returns every result by case
// name; the conservation property test reads the same runs.
func resilientGoldenRuns(t *testing.T) map[string]*ResilientResult {
	t.Helper()
	net := netmodel.TCPGigE()
	cost := cluster.PentiumIII1GHz()
	out := map[string]*ResilientResult{}
	run := func(name string, cl cluster.Config, rcfg ResilientConfig, want error) *ResilientResult {
		t.Helper()
		res, err := RunResilient(cl, cost, rcfg)
		if !errors.Is(err, want) || (want == nil && err != nil) {
			t.Fatalf("%s: err = %v, want %v", name, err, want)
		}
		out[name] = res
		return res
	}
	replicated := func(seed uint64, steps int) Config {
		return Config{System: testSystem(48, 24, seed), MD: testMDConfig(), Steps: steps, Middleware: MiddlewareMPI}
	}
	healthyWall := func(cl cluster.Config, cfg Config) float64 {
		t.Helper()
		res, err := Run(cl, cost, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Wall
	}
	spec := func(format string, args ...any) *fault.Scenario {
		t.Helper()
		sc, err := fault.ParseSpec(fmt.Sprintf(format, args...))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}

	// Global rewind, replicated data, two CPUs per node so the crash drops
	// two ranks and renumbers the rest.
	{
		cl := clusterCfg(3, 2, net)
		cfg := replicated(7, 6)
		w := healthyWall(cl, cfg)
		res := run("global/one-crash", cl, ResilientConfig{
			Config: cfg, Scenario: spec("crash@%g,rank=2", 0.5*w), CheckpointEvery: 2, RestartCost: 5,
		}, nil)
		if len(res.Recoveries) != 1 || res.Ranks != 4 {
			t.Fatalf("global/one-crash: %d recoveries on %d ranks", len(res.Recoveries), res.Ranks)
		}
		// No rank has a checkpoint yet: the rewind keeps nothing.
		run("global/before-first-checkpoint", cl, ResilientConfig{
			Config: cfg, Scenario: spec("crash@%g,rank=5", 0.3*w), CheckpointEvery: 4, RestartCost: 5,
		}, nil)
	}
	{
		cl := clusterCfg(4, 2, net)
		cfg := replicated(9, 7)
		w := healthyWall(cl, cfg)
		res := run("global/two-crashes", cl, ResilientConfig{
			Config:          cfg,
			Scenario:        spec("crash@%g,rank=3;crash@%g,rank=0;straggler@0:2,node=0,slow=2", 0.4*w, 0.9*w+5),
			CheckpointEvery: 2, RestartCost: 5,
		}, nil)
		if len(res.Recoveries) != 2 || res.Ranks != 4 {
			t.Fatalf("global/two-crashes: %d recoveries on %d ranks", len(res.Recoveries), res.Ranks)
		}
	}
	// Global rewind under the domain decomposition re-tiles the survivors.
	{
		cl := clusterCfg(8, 1, net)
		cfg := domainCfg(testSystem(64, 24, 7), 6)
		w := healthyWall(cl, cfg)
		run("global/domain", cl, ResilientConfig{
			Config: cfg, Scenario: spec("crash@%g,rank=3", 0.45*w), CheckpointEvery: 2, RestartCost: 5,
		}, nil)

		// Localized repair, crash in the middle of a rebuild epoch.
		res := run("local/mid-epoch", cl, ResilientConfig{
			Config: cfg, Scenario: spec("crash@%g,rank=3", 0.45*w), CheckpointEvery: 2, RestartCost: 5,
			Recovery: RecoveryLocal,
		}, nil)
		if len(res.Local) != 1 || res.Ranks != 8 {
			t.Fatalf("local/mid-epoch: %d local repairs on %d ranks", len(res.Local), res.Ranks)
		}
		thin := cfg
		thin.MD.FF.ListCutoff = thin.MD.FF.CutOff + 0.1
		run("local/thin-skin", cl, ResilientConfig{
			Config: thin, Scenario: spec("crash@%g,rank=5", 0.6*healthyWall(cl, thin)), CheckpointEvery: 3, RestartCost: 5,
			Recovery: RecoveryLocal,
		}, nil)

		// The Young/Daly tuner re-derives the cadence after each crash.
		res = run("local/tuned", cl, ResilientConfig{
			Config:          cfg,
			Scenario:        spec("crash@%g,rank=2;crash@%g,rank=6", 0.55*w, 0.85*w),
			CheckpointEvery: 3, RestartCost: 5, Recovery: RecoveryLocal,
			CheckpointCost: 2,
		}, nil)
		if len(res.Recoveries) != 2 || !res.IntervalTuned {
			t.Fatalf("local/tuned: %d recoveries, tuned=%v", len(res.Recoveries), res.IntervalTuned)
		}
	}
	// Kill -9 after step 3 — a 3-step run — then resume from the ring.
	{
		cl := clusterCfg(4, 1, net)
		mk := func(dir string, steps int) ResilientConfig {
			return ResilientConfig{
				Config: replicated(3, steps), CheckpointEvery: 2, RestartCost: 5, CheckpointDir: dir,
			}
		}
		dir := t.TempDir()
		run("kill/halted", cl, mk(dir, 3), nil)
		res := run("kill/resumed", cl, mk(dir, 6), nil)
		if res.Resumed == nil || res.Resumed.LostOnDisk <= 0 {
			t.Fatalf("kill/resumed: resume info %+v", res.Resumed)
		}

		// The same with a recovered crash before the kill: the resume
		// inherits the shrunken cluster and the consumed crash.
		w := healthyWall(cl, replicated(3, 6))
		sc := spec("crash@%g,rank=1", 0.25*w)
		dir = t.TempDir()
		halted := mk(dir, 5)
		halted.Scenario = sc
		run("kill-after-crash/halted", cl, halted, nil)
		resumed := mk(dir, 6)
		resumed.Scenario = sc
		res = run("kill-after-crash/resumed", cl, resumed, nil)
		if res.Resumed == nil || res.Ranks != 3 || len(res.Recoveries) != 0 {
			t.Fatalf("kill-after-crash/resumed: ranks %d, %d recoveries, resume %+v", res.Ranks, len(res.Recoveries), res.Resumed)
		}
	}
	// One graceful preempt/resume cycle.
	{
		cl := clusterCfg(4, 1, net)
		mk := func(dir string, onStep func(int, StepTiming, md.EnergyReport) bool) ResilientConfig {
			return ResilientConfig{
				Config: replicated(29, 6), CheckpointEvery: 4, RestartCost: 5,
				CheckpointDir: dir, OnStep: onStep,
			}
		}
		dir := t.TempDir()
		run("preempt/parked", cl, mk(dir, func(step int, _ StepTiming, _ md.EnergyReport) bool { return step >= 1 }), ErrPreempted)
		run("preempt/resumed", cl, mk(dir, nil), nil)
	}
	return out
}

// checkpointDigests pins what the driver checkpoints, beside what it
// prices: one digest over Pos, Vel, Frc and ListOrigin per rewind
// checkpoint of the matrix ("checkpoint/<case>/<recovery>"), and the bytes
// of every file a per-step durable ring holds after four runs
// ("ring/<run>/<file>"). These cases were captured while the recorder
// still copied each rank's velocity block and rank 0's replica.
func checkpointDigests(t *testing.T, runs map[string]*ResilientResult) map[string]string {
	t.Helper()
	out := map[string]string{}
	for name, res := range runs {
		for i, ev := range res.Recoveries {
			if ev.Checkpoint != nil {
				out[fmt.Sprintf("checkpoint/%s/%d", name, i)] = checkpointDigest(ev.Checkpoint)
			}
		}
	}

	net := netmodel.TCPGigE()
	cost := cluster.PentiumIII1GHz()
	ring := func(name string, cl cluster.Config, cfg Config, crash string, recovery RecoveryKind) {
		t.Helper()
		rcfg := ResilientConfig{
			Config: cfg, CheckpointEvery: 1, KeepCheckpoints: 100, RestartCost: 5,
			CheckpointDir: t.TempDir(), Recovery: recovery,
		}
		if crash != "" {
			healthy, err := Run(cl, cost, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := fault.ParseSpec(fmt.Sprintf(crash, 0.45*healthy.Wall))
			if err != nil {
				t.Fatal(err)
			}
			rcfg.Scenario = sc
		}
		res, err := RunResilient(cl, cost, rcfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if (crash != "") != (len(res.Recoveries) == 1) {
			t.Fatalf("%s: %d recoveries", name, len(res.Recoveries))
		}
		files, err := os.ReadDir(rcfg.CheckpointDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(rcfg.CheckpointDir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			out["ring/"+name+"/"+f.Name()] = hex.EncodeToString(sum[:])
		}
	}
	replicated := Config{System: testSystem(48, 24, 3), MD: testMDConfig(), Steps: 6, Middleware: MiddlewareMPI}
	domain := domainCfg(testSystem(64, 24, 7), 6)
	ring("replicated-p4", clusterCfg(4, 1, net), replicated, "", RecoveryGlobal)
	ring("replicated-p4-crash", clusterCfg(4, 1, net), replicated, "crash@%g,rank=1", RecoveryGlobal)
	ring("domain-p8", clusterCfg(8, 1, net), domain, "", RecoveryLocal)
	ring("domain-p8-local-crash", clusterCfg(8, 1, net), domain, "crash@%g,rank=3", RecoveryLocal)
	return out
}

// checkpointDigest hashes a checkpoint's state vectors, a nil ListOrigin
// as an empty one.
func checkpointDigest(cp *md.Checkpoint) string {
	b := newBitsHash()
	for _, vs := range [][]vec.V{cp.Pos, cp.Vel, cp.Frc, cp.ListOrigin} {
		b.i(len(vs))
		for _, v := range vs {
			b.f(v.X, v.Y, v.Z)
		}
	}
	return b.sum()
}

func TestResilientGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bit-for-bit digests are pinned on amd64 only")
	}
	got := map[string]string{}
	runs := resilientGoldenRuns(t)
	for name, res := range runs {
		got[name] = resilientDigest(res)
	}
	for key, sum := range checkpointDigests(t, runs) {
		got[key] = sum
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resilientGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d digests)", resilientGoldenPath, len(got))
		return
	}
	data, err := os.ReadFile(resilientGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d digests computed, golden holds %d", len(got), len(want))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: in the golden, not computed", key)
		} else if g != w {
			t.Errorf("%s: output bits differ from the golden", key)
		}
	}
}
