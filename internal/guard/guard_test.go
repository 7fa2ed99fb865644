package guard

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/vec"
)

func okForces(n int) []vec.V {
	f := make([]vec.V, n)
	for i := range f {
		f[i] = vec.New(float64(i), -1, 0.5)
	}
	return f
}

// trip returns the event of a *TripError and whether err was one.
func trip(err error) (Event, bool) {
	var te *TripError
	if !errors.As(err, &te) {
		return Event{}, false
	}
	return te.Ev, true
}

// An unguarded run holds a nil monitor.
func TestDisabledMonitorNeverTrips(t *testing.T) {
	bad := okForces(3)
	bad[1].Y = math.NaN()
	var m *Monitor
	if err := m.Check(1, bad, math.Inf(1)); err != nil {
		t.Errorf("nil monitor tripped: %v", err)
	}
}

func TestForceNaNDetection(t *testing.T) {
	m := NewMonitor(Config{})
	frc := okForces(5)
	frc[3].Z = math.Inf(-1)
	ev, ok := trip(m.Check(7, frc, 10))
	if !ok || ev.Cause != CauseForceNaN || ev.Atom != 3 || ev.Step != 7 {
		t.Fatalf("got %+v ok=%v", ev, ok)
	}
	if !math.IsInf(ev.Value, -1) {
		t.Errorf("want the offending component as value, got %g", ev.Value)
	}
	if !strings.Contains(ev.String(), "atom 3") {
		t.Errorf("event string %q does not name the atom", ev)
	}
}

func TestEnergyNaNDetection(t *testing.T) {
	m := NewMonitor(Config{})
	ev, ok := trip(m.Check(1, okForces(2), math.NaN()))
	if !ok || ev.Cause != CauseEnergyNaN {
		t.Fatalf("got %+v ok=%v", ev, ok)
	}
}

func TestDriftWindow(t *testing.T) {
	m := NewMonitor(Config{DriftTol: 5, DriftWindow: 4})
	frc := okForces(2)

	// Window not yet filled: no drift verdicts, however wild the value.
	for i, e := range []float64{100, 101, 99, 1e6} {
		if err := m.Check(i+1, frc, e); err != nil {
			t.Fatalf("tripped with unfilled window at step %d: %v", i+1, err)
		}
	}

	// Filled window mean is dominated by the 1e6 outlier — start over
	// with a window that is all near 100.
	m2 := NewMonitor(Config{DriftTol: 5, DriftWindow: 4})
	for i, e := range []float64{100, 101, 99, 100} {
		if err := m2.Check(i+1, frc, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := m2.Check(5, frc, 102); err != nil {
		t.Fatalf("within-tolerance step tripped: %v", err)
	}
	ev, ok := trip(m2.Check(6, frc, 120))
	if !ok || ev.Cause != CauseDrift {
		t.Fatalf("drift not caught: %+v ok=%v", ev, ok)
	}
	// Step 5 passed, so the window holds 102, 101, 99 and 100: mean 100.5.
	if ev.Value != 19.5 {
		t.Errorf("drift delta %g, want 19.5", ev.Value)
	}

	// DriftTol 0 disables drift checking entirely.
	m3 := NewMonitor(Config{})
	for i := 0; i < 40; i++ {
		if err := m3.Check(i+1, frc, 1e12*float64(i)); err != nil {
			t.Fatalf("drift tripped with DriftTol 0: %v", err)
		}
	}
}
