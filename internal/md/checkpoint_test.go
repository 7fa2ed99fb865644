package md

import "testing"

func TestCheckpointRoundTripContinuesTrajectory(t *testing.T) {
	build := func() *Engine {
		sys := waterBox(27, 12, 51)
		cfg := smallCutoffs(DefaultConfig())
		cfg.Temperature = 200
		cfg.Seed = 3
		return NewEngine(sys, cfg)
	}

	// Reference: 10 straight steps.
	ref := build()
	refReports := ref.Run(10, nil, nil)

	// Split: 5 steps, checkpoint, restore into a fresh engine, 5 more.
	a := build()
	a.Run(5, nil, nil)
	b := build()
	if err := b.Restore(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	// Continue without re-evaluating step 0 forces (they were restored):
	// drive the Verlet steps directly.
	var got []EnergyReport
	for s := 0; s < 5; s++ {
		got = append(got, b.Step(nil, nil))
	}
	for s := 0; s < 5; s++ {
		if want := refReports[5+s]; got[s] != want {
			t.Fatalf("restarted step %d: %+v vs straight %+v", s, got[s], want)
		}
	}
}

func TestCheckpointValidation(t *testing.T) {
	sysA := waterBox(27, 12, 52)
	sysB := waterBox(8, 12, 52)
	cfg := smallCutoffs(DefaultConfig())
	cp := NewEngine(sysA, cfg).Snapshot()
	// Wrong atom count.
	if err := NewEngine(sysB, cfg).Restore(cp); err == nil {
		t.Fatal("atom-count mismatch accepted")
	}
	// Wrong timestep.
	cfg2 := cfg
	cfg2.TimestepFS = 2
	if err := NewEngine(sysA, cfg2).Restore(cp); err == nil {
		t.Fatal("timestep mismatch accepted")
	}
}
