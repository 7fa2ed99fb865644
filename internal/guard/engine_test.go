package guard_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/guard"
	"repro/internal/md"
	"repro/internal/topol"
)

// TestRealTripStopsTheRun: in a 27-water box at 250 K, an infinite
// velocity carries its atom to a non-finite position, and the forces of
// step 1 are no longer finite. The guard stops the run there with a
// *TripError naming the force.
func TestRealTripStopsTheRun(t *testing.T) {
	cfg := md.DefaultConfig()
	cfg.FF.CutOn, cfg.FF.CutOff, cfg.FF.ListCutoff = 3.5, 4.5, 5.5
	cfg.Temperature = 250
	e := md.NewEngine(topol.NewWaterBox(27, 12, 5), cfg)
	e.ComputeForces(nil, nil)
	e.Vel[4].Y = math.Inf(1)
	mon := guard.NewMonitor(guard.Config{})
	rep := e.Step(nil, nil)
	err := mon.Check(1, e.Frc, rep.Total())
	var te *guard.TripError
	if !errors.As(err, &te) {
		t.Fatalf("step 1 with an infinite velocity: got %v, want a *guard.TripError", err)
	}
	if te.Ev.Step != 1 || te.Ev.Cause != guard.CauseForceNaN {
		t.Errorf("trip %+v, want a non-finite force at step 1", te.Ev)
	}
}
