package md

import (
	"runtime"
	"testing"
)

// pooledConfig returns a PME config with KernelWorkers set.
func pooledConfig(workers int) Config {
	cfg := smallCutoffs(PMEDefaultConfig())
	cfg.Temperature = 0
	cfg.PME = PMEConfig{Beta: 0.45, K1: 24, K2: 24, K3: 24, Order: 4}
	cfg.FF.Beta = 0.45
	cfg.KernelWorkers = workers
	return cfg
}

func runSteps(t *testing.T, cfg Config, steps int) ([]EnergyReport, []float64) {
	t.Helper()
	sys := waterBox(27, 12, 11)
	e := NewEngine(sys, cfg)
	reports := e.Run(steps, nil, nil)
	flat := make([]float64, 0, 3*len(e.Pos))
	for _, p := range e.Pos {
		flat = append(flat, p.X, p.Y, p.Z)
	}
	return reports, flat
}

// The determinism contract of the kernels at engine level: the whole
// trajectory is byte-identical at every worker count.
func TestEngineBitwiseStableAcrossKernelWorkers(t *testing.T) {
	const steps = 5
	wantR, wantP := runSteps(t, pooledConfig(1), steps)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0) + 1} {
		r, p := runSteps(t, pooledConfig(workers), steps)
		for i := range r {
			if r[i] != wantR[i] {
				t.Fatalf("workers=%d step %d: report %+v != 1-worker %+v", workers, i, r[i], wantR[i])
			}
		}
		for i := range p {
			if p[i] != wantP[i] {
				t.Fatalf("workers=%d: coordinate %d differs bitwise", workers, i)
			}
		}
	}
}

// The tuner must pick an admissible candidate and report a full trial
// table; applying its choice pins ListCutoff = CutOff + Chosen.
func TestTuneSkinPicksAdmissibleCandidate(t *testing.T) {
	sys := waterBox(27, 12, 12)
	cfg := pooledConfig(0)
	tuning := TuneSkin(sys, cfg, TuneOptions{Candidates: []float64{0.5, 1.0, 1.5}, Window: 3})
	if len(tuning.Trials) == 0 {
		t.Fatal("no trials ran")
	}
	found := false
	for _, tr := range tuning.Trials {
		if tr.Skin == tuning.Chosen {
			found = true
		}
		if tr.MsPerStep < 0 || tr.Pairs <= 0 {
			t.Fatalf("implausible trial %+v", tr)
		}
	}
	if !found {
		t.Fatalf("chosen skin %g not among trials %+v", tuning.Chosen, tuning.Trials)
	}
	applied := tuning.Apply(cfg)
	if got := applied.FF.ListCutoff - applied.FF.CutOff; got != tuning.Chosen {
		t.Fatalf("Apply set skin %g, want %g", got, tuning.Chosen)
	}
}

// Candidates that violate the minimum-image bound are skipped; when none
// fit, the configured skin survives unchanged.
func TestTuneSkinSkipsInadmissibleCandidates(t *testing.T) {
	sys := waterBox(27, 12, 13) // max cutoff 6 Å
	cfg := pooledConfig(0)      // CutOff 4.5 Å → skins > 1.5 Å are out
	tuning := TuneSkin(sys, cfg, TuneOptions{Candidates: []float64{5, 9}, Window: 2})
	if len(tuning.Trials) != 0 {
		t.Fatalf("inadmissible candidates ran: %+v", tuning.Trials)
	}
	if want := cfg.FF.ListCutoff - cfg.FF.CutOff; tuning.Chosen != want {
		t.Fatalf("fallback skin %g, want configured %g", tuning.Chosen, want)
	}
}

// Replay guarantee: a tuned run and a run with the skin pinned to the
// tuned value are the same configuration, hence byte-identical physics.
func TestTunedSkinReplayIsBitwiseIdentical(t *testing.T) {
	sys := waterBox(27, 12, 14)
	cfg := pooledConfig(2)
	tuning := TuneSkin(sys, cfg, TuneOptions{Candidates: []float64{0.5, 1.0}, Window: 2})

	tuned := tuning.Apply(cfg)
	pinned := cfg
	pinned.FF.ListCutoff = pinned.FF.CutOff + tuning.Chosen

	ea := NewEngine(waterBox(27, 12, 14), tuned)
	eb := NewEngine(waterBox(27, 12, 14), pinned)
	ra := ea.Run(5, nil, nil)
	rb := eb.Run(5, nil, nil)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("step %d: tuned %+v != pinned %+v", i, ra[i], rb[i])
		}
	}
	for i := range ea.Pos {
		if ea.Pos[i] != eb.Pos[i] {
			t.Fatalf("atom %d: tuned pos != pinned pos", i)
		}
	}
}
