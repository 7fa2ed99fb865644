package pmd

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/perf"
)

// attributionError returns the relative identity violation of a profile:
// |sum(buckets) − wall| / wall.
func attributionError(p *perf.Profile) float64 {
	if p.WallSeconds == 0 {
		return 0
	}
	return math.Abs(p.Attribution.Sum()-p.WallSeconds) / p.WallSeconds
}

func TestProfileIdentityAndTelemetry(t *testing.T) {
	sys := testSystem(64, 24, 21)
	const steps, p = 3, 4
	var hookSteps []int
	var hookEnergies []md.EnergyReport
	cfg := Config{
		System:     sys,
		MD:         testMDConfig(),
		Steps:      steps,
		Middleware: MiddlewareMPI,
		Perf:       perf.NewTimeline(p),
		OnStep: func(step int, st StepTiming, e md.EnergyReport) {
			hookSteps = append(hookSteps, step)
			hookEnergies = append(hookEnergies, e)
			if st.Classic.Wall <= 0 {
				t.Errorf("step %d: hook got empty classic sample", step)
			}
		},
	}
	res, err := Run(clusterCfg(p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(hookSteps) != steps {
		t.Fatalf("OnStep fired %d times, want %d", len(hookSteps), steps)
	}
	for i, s := range hookSteps {
		if s != i {
			t.Fatalf("OnStep order: %v", hookSteps)
		}
		if hookEnergies[i] != res.Energies[i] {
			t.Fatalf("step %d: hook energy differs from result", i)
		}
	}

	prof := res.Profile()
	if e := attributionError(prof); e > 0.01 {
		t.Fatalf("attribution identity violated: %.4f relative error (buckets %+v, wall %g)",
			e, prof.Attribution, prof.WallSeconds)
	}
	if prof.Attribution.ComputeSeconds <= 0 || prof.Attribution.CommSeconds <= 0 {
		t.Fatalf("empty buckets: %+v", prof.Attribution)
	}
	if prof.Steps != steps || prof.Ranks != p {
		t.Fatalf("profile shape: steps=%d ranks=%d", prof.Steps, prof.Ranks)
	}
	// The log observed the replicated path's collectives.
	if len(prof.Collectives) == 0 || prof.CommMatrix == nil {
		t.Fatalf("the run's log recorded no communication: %+v", prof.Collectives)
	}
	var gathered bool
	for _, c := range prof.Collectives {
		if c.Kind == "allgatherv" && c.Calls > 0 && c.Bytes > 0 {
			gathered = true
		}
	}
	if !gathered {
		t.Fatalf("no allgatherv in collectives: %+v", prof.Collectives)
	}
	for _, ph := range prof.Phases {
		if ph.Imbalance < 1 {
			t.Fatalf("phase %s imbalance %g < 1", ph.Phase, ph.Imbalance)
		}
	}

	// The log adds the communication aggregates and nothing else: the
	// same result without one (the memoized-figure path) yields the same
	// bytes less those three fields.
	bare := *res
	bare.Comm = nil
	stripped := *prof
	stripped.Collectives, stripped.CommMatrix, stripped.NamedMatrices = nil, nil, nil
	want, _ := stripped.Encode()
	if got, _ := bare.Profile().Encode(); !bytes.Equal(got, want) {
		t.Fatalf("profile without a log differs beyond the comm aggregates:\n%s\n----\n%s", got, want)
	}
}

func TestProfileDomainNamedMatrices(t *testing.T) {
	sys := testSystem(64, 24, 22)
	const steps, p = 2, 4
	cfg := Config{
		System:     sys,
		MD:         testMDConfig(),
		Steps:      steps,
		Middleware: MiddlewareMPI,
		Decomp:     DecompDomain,
		Perf:       perf.NewTimeline(p),
	}
	res, err := Run(clusterCfg(p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := res.Profile()
	if e := attributionError(prof); e > 0.01 {
		t.Fatalf("domain attribution identity violated: %.4f", e)
	}
	var halo bool
	for _, nm := range prof.NamedMatrices {
		if nm.Name == "halo" && nm.Calls == int64(steps) {
			halo = true
		}
	}
	if !halo {
		t.Fatalf("domain run recorded no per-epoch halo matrix: %+v", prof.NamedMatrices)
	}
}

func TestOnStepKeepsTapeEligible(t *testing.T) {
	sys := testSystem(48, 24, 23)
	const steps, p = 2, 2
	tape := &Tape{}
	base := Config{
		System:     sys,
		MD:         testMDConfig(),
		Steps:      steps,
		Middleware: MiddlewareMPI,
		Tape:       tape,
	}
	r1, err := Run(clusterCfg(p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), base)
	if err != nil {
		t.Fatal(err)
	}
	if !tape.Complete() {
		t.Fatal("recording run left the tape incomplete")
	}

	// Replay with the telemetry hook armed: the tape must stay in use
	// (replays charge recorded counters) and the hook must stream the
	// taped energies.
	var got []md.EnergyReport
	cfg := base
	cfg.OnStep = func(step int, _ StepTiming, e md.EnergyReport) { got = append(got, e) }
	r2, err := Run(clusterCfg(p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Wall != r1.Wall {
		t.Fatalf("replay wall %g != recorded wall %g", r2.Wall, r1.Wall)
	}
	if len(got) != steps {
		t.Fatalf("hook fired %d times on replay", len(got))
	}
	for i := range got {
		if got[i] != r1.Energies[i] {
			t.Fatalf("step %d: replayed hook energy differs", i)
		}
	}
}

func TestProfileBytesDeterministicAcrossHostWorkers(t *testing.T) {
	sys := testSystem(64, 24, 24)
	run := func(hostWorkers, kernelWorkers int) []byte {
		const steps, p = 2, 4
		mdc := testMDConfig()
		mdc.KernelWorkers = kernelWorkers
		res, err := Run(clusterCfg(p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), Config{
			System:      sys,
			MD:          mdc,
			Steps:       steps,
			Middleware:  MiddlewareMPI,
			HostWorkers: hostWorkers,
			Perf:        perf.NewTimeline(p),
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.Profile().Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref := run(1, 0)
	// Captured from this test at commit be9ebb8, when the samples still
	// came from a store the timeline kept beside Result.Timings.
	golden, err := os.ReadFile(filepath.Join("testdata", "profile_p4_steps2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, golden) {
		t.Fatalf("profile bytes differ from testdata/profile_p4_steps2.json:\n%s", ref)
	}
	for _, c := range [][2]int{{3, 0}, {1, 2}, {3, 2}} {
		if got := run(c[0], c[1]); !bytes.Equal(got, ref) {
			t.Fatalf("profile bytes differ at hostWorkers=%d kernelWorkers=%d", c[0], c[1])
		}
	}
}

func TestResilientProfileRecoveryBucket(t *testing.T) {
	sys := testSystem(64, 24, 25)
	sc, err := fault.ParseSpec("crash@0.2,rank=2")
	if err != nil {
		t.Fatal(err)
	}
	const steps = 6
	res, err := RunResilient(clusterCfg(4, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), ResilientConfig{
		Config: Config{
			System:     sys,
			MD:         testMDConfig(),
			Steps:      steps,
			Middleware: MiddlewareMPI,
		},
		Scenario:        sc,
		CheckpointEvery: 2,
		RestartCost:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := res.Profile()
	if prof.Recovery == nil || prof.Recovery.Events != 1 {
		t.Fatalf("recovery detail: %+v", prof.Recovery)
	}
	if prof.Attribution.RecoverySeconds <= 0 {
		t.Fatalf("crash run attributed no recovery time: %+v", prof.Attribution)
	}
	if e := attributionError(prof); e > 0.01 {
		t.Fatalf("resilient attribution identity violated: %.4f (buckets %+v, wall %g)",
			e, prof.Attribution, prof.WallSeconds)
	}
}

// TestResilientProfileCoversTheStepsThatRan: when the completing attempt
// starts at global step b > 0 — after a crash rewind, or in a process that
// resumed a killed run from disk — the profile's cells are that attempt's
// steps and no others. Steps before b have no rows in this result; counting
// them as cells (every rank at zero, "slowest" rank 0) used to dilute the
// occupancy and could name the wrong dominant rank. steps stays global.
func TestResilientProfileCoversTheStepsThatRan(t *testing.T) {
	sys := testSystem(64, 24, 25)
	sc, err := fault.ParseSpec("crash@0.2,rank=2")
	if err != nil {
		t.Fatal(err)
	}
	const steps = 6
	cl, cost := clusterCfg(4, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz()
	mk := func(sc *fault.Scenario, dir string, halt int) ResilientConfig {
		return ResilientConfig{
			Config:          Config{System: sys, MD: testMDConfig(), Steps: steps, Middleware: MiddlewareMPI},
			Scenario:        sc,
			CheckpointEvery: 2,
			RestartCost:     5,
			CheckpointDir:   dir,
			HaltAfterStep:   halt,
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) *ResilientResult
	}{
		{"crash rewind", func(t *testing.T) *ResilientResult {
			res, err := RunResilient(cl, cost, mk(sc, "", 0))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"halt then resume", func(t *testing.T) *ResilientResult {
			dir := t.TempDir()
			if _, err := RunResilient(cl, cost, mk(nil, dir, 3)); !errors.Is(err, ErrHalted) {
				t.Fatalf("want ErrHalted, got %v", err)
			}
			res, err := RunResilient(cl, cost, mk(nil, dir, 0))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := tc.run(t)
			rows := res.Final.Timings
			ran := len(rows[0])
			if ran == 0 || ran >= steps {
				t.Fatalf("completing attempt ran %d of %d steps; the case needs a base > 0", ran, steps)
			}
			// Slowest rank per cell, straight from the rows (ties to the
			// lowest rank, as the profile documents).
			count := make([]int, len(rows))
			for i := 0; i < ran; i++ {
				for _, phase := range []func(StepTiming) PhaseSample{
					func(st StepTiming) PhaseSample { return st.Classic },
					func(st StepTiming) PhaseSample { return st.PME },
				} {
					slowest := 0
					for r := range rows {
						if phase(rows[r][i]).Wall > phase(rows[slowest][i]).Wall {
							slowest = r
						}
					}
					count[slowest]++
				}
			}
			dominant := 0
			for r := range count {
				if count[r] > count[dominant] {
					dominant = r
				}
			}

			prof := res.Profile()
			if prof.Steps != steps {
				t.Fatalf("steps = %d, want the global count %d", prof.Steps, steps)
			}
			cp := prof.CriticalPath
			for r, n := range count {
				if want := float64(n) / float64(2*ran); cp.Occupancy[r] != want {
					t.Fatalf("occupancy = %v, want rank %d at %d of the %d cells that ran", cp.Occupancy, r, n, 2*ran)
				}
			}
			if cp.DominantRank != dominant {
				t.Fatalf("dominant rank = %d, want %d (cells per rank %v)", cp.DominantRank, dominant, count)
			}
			if e := attributionError(prof); e > 0.01 {
				t.Fatalf("attribution identity violated: %.4f", e)
			}
		})
	}
}
