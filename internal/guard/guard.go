// Package guard implements runtime numeric guardrails for MD runs: NaN/Inf
// detection on forces and energies and an energy-drift monitor with a
// configurable tolerance window. A trip stops the run at the step that
// tripped: Monitor.Check returns it as a *TripError.
package guard

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// Cause labels why a guard tripped.
type Cause string

const (
	CauseForceNaN  Cause = "force-nonfinite"  // NaN/Inf component in the force array
	CauseEnergyNaN Cause = "energy-nonfinite" // NaN/Inf total energy
	CauseDrift     Cause = "energy-drift"     // |E − window mean| beyond DriftTol
)

// Config tunes the drift check; the NaN/Inf checks have no settings.
type Config struct {
	// DriftTol is the allowed absolute deviation of the total energy from
	// its trailing-window mean, in kcal/mol. Zero disables drift checking.
	DriftTol float64
	// DriftWindow is the trailing-window length in steps; zero means 16.
	DriftWindow int
}

const defaultDriftWindow = 16

// Event records one guard trip.
type Event struct {
	Step  int // 1-based MD step
	Cause Cause
	Value float64 // offending energy, or drift delta for CauseDrift
	Atom  int     // offending atom index for CauseForceNaN, else -1
}

func (e Event) String() string {
	switch e.Cause {
	case CauseForceNaN:
		return fmt.Sprintf("guard: step %d: non-finite force on atom %d", e.Step, e.Atom)
	case CauseDrift:
		return fmt.Sprintf("guard: step %d: energy drift %.6g beyond tolerance", e.Step, e.Value)
	default:
		return fmt.Sprintf("guard: step %d: %s value %.6g", e.Step, e.Cause, e.Value)
	}
}

// TripError is the trip that stopped a run.
type TripError struct {
	Ev Event
}

func (e *TripError) Error() string { return e.Ev.String() }

// Monitor holds the drift window of one run. Not safe for concurrent use.
type Monitor struct {
	cfg    Config
	window []float64 // ring buffer of recent total energies
	next   int
	filled bool
}

// NewMonitor builds a monitor for one run.
func NewMonitor(cfg Config) *Monitor {
	if cfg.DriftWindow <= 0 {
		cfg.DriftWindow = defaultDriftWindow
	}
	return &Monitor{cfg: cfg, window: make([]float64, 0, cfg.DriftWindow)}
}

// Check inspects one completed step: frc is the full force array, total
// the total potential+kinetic energy. A tripped guard comes back as a
// *TripError; a step that passes feeds total into the drift window. A nil
// monitor, the unguarded run's, never trips.
func (m *Monitor) Check(step int, frc []vec.V, total float64) error {
	if m == nil {
		return nil
	}
	for i, f := range frc {
		if !finiteVec(f) {
			return &TripError{Event{Step: step, Cause: CauseForceNaN, Value: worstComponent(f), Atom: i}}
		}
	}
	if !finite(total) {
		return &TripError{Event{Step: step, Cause: CauseEnergyNaN, Value: total, Atom: -1}}
	}
	if m.cfg.DriftTol <= 0 {
		return nil
	}
	if m.filled {
		mean := 0.0
		for _, e := range m.window {
			mean += e
		}
		mean /= float64(len(m.window))
		if d := math.Abs(total - mean); d > m.cfg.DriftTol {
			return &TripError{Event{Step: step, Cause: CauseDrift, Value: d, Atom: -1}}
		}
	}
	if len(m.window) < cap(m.window) {
		m.window = append(m.window, total)
	} else {
		m.window[m.next] = total
		m.next = (m.next + 1) % len(m.window)
	}
	m.filled = len(m.window) == cap(m.window)
	return nil
}

func finiteVec(v vec.V) bool {
	return finite(v.X) && finite(v.Y) && finite(v.Z)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// worstComponent returns the first non-finite component for reporting.
func worstComponent(v vec.V) float64 {
	for _, x := range []float64{v.X, v.Y, v.Z} {
		if !finite(x) {
			return x
		}
	}
	return v.X
}
