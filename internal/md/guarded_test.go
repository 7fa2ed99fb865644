package md

import (
	"testing"

	"repro/internal/guard"
)

// TestGuardedRunWithoutTripsIsByteIdentical: an armed guard that never
// fires must not perturb the trajectory in any way.
func TestGuardedRunWithoutTripsIsByteIdentical(t *testing.T) {
	newEngine := func() *Engine {
		cfg := smallCutoffs(DefaultConfig())
		cfg.Temperature = 250
		cfg.Seed = 3
		e := NewEngine(waterBox(27, 12, 3), cfg)
		e.ComputeForces(nil, nil)
		return e
	}
	plain, guarded := newEngine(), newEngine()
	mon := guard.NewMonitor(guard.Config{DriftTol: 1e6, DriftWindow: 2})
	for s := 1; s <= 6; s++ {
		want := plain.Step(nil, nil)
		got := guarded.Step(nil, nil)
		if err := mon.Check(s, guarded.Frc, got.Total()); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if got != want {
			t.Fatalf("step %d: guarded energies differ from unguarded", s)
		}
	}
	for i := range plain.Pos {
		if plain.Pos[i] != guarded.Pos[i] {
			t.Fatalf("atom %d: guarded positions differ", i)
		}
	}
}
