// Package guard implements runtime numeric guardrails for MD runs: NaN/Inf
// detection on forces and energies and an energy-drift monitor with a
// configurable tolerance window. A guard trip does not decide policy —
// the engine layer (md.Engine.StepGuarded) re-evaluates the step on exact
// kernels (graceful degradation) or aborts, per Config.Policy, and records
// the trip as an Event.
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
	CauseInjected  Cause = "injected"         // test-only synthetic trip
)

// Policy decides what the engine does after a trip.
type Policy int

const (
	// PolicyFallback re-evaluates the tripped step with exact kernels and
	// continues the run on exact math.
	PolicyFallback Policy = iota
	// PolicyAbort stops the run with a *TripError.
	PolicyAbort
)

func (p Policy) String() string {
	switch p {
	case PolicyFallback:
		return "fallback"
	case PolicyAbort:
		return "abort"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config enables and tunes the guardrails.
type Config struct {
	Enabled bool
	Policy  Policy
	// DriftTol is the allowed absolute deviation of the total energy from
	// its trailing-window mean, in kcal/mol. Zero disables drift checking
	// (NaN/Inf checks stay on whenever Enabled is set).
	DriftTol float64
	// DriftWindow is the trailing-window length in steps; zero means 16.
	DriftWindow int
	// InjectStep, when > 0, forces one synthetic trip at that 1-based
	// step. Test hook: exercises the fallback path without needing real
	// numeric corruption. Consumed once per Monitor.
	InjectStep int
}

const defaultDriftWindow = 16

// Event records one guard trip.
type Event struct {
	Step      int // 1-based MD step
	Cause     Cause
	Value     float64 // offending energy, or drift delta for CauseDrift
	Atom      int     // offending atom index for CauseForceNaN, else -1
	Recovered bool    // true when the step was re-run on exact kernels
}

func (e Event) String() string {
	state := "aborted"
	if e.Recovered {
		state = "recovered on exact kernels"
	}
	switch e.Cause {
	case CauseForceNaN:
		return fmt.Sprintf("guard: step %d: non-finite force on atom %d (%s)",
			e.Step, e.Atom, state)
	case CauseDrift:
		return fmt.Sprintf("guard: step %d: energy drift %.6g beyond tolerance (%s)",
			e.Step, e.Value, state)
	default:
		return fmt.Sprintf("guard: step %d: %s value %.6g (%s)",
			e.Step, e.Cause, e.Value, state)
	}
}

// TripError is returned when PolicyAbort stops a run at a guard trip.
type TripError struct {
	Ev Event
}

func (e *TripError) Error() string { return e.Ev.String() }

// Monitor holds the drift window and the trip log for one run.
// Not safe for concurrent use.
type Monitor struct {
	cfg      Config
	window   []float64 // ring buffer of recent total energies
	next     int
	filled   bool
	exact    bool // already degraded to exact kernels
	injected bool // InjectStep consumed
	events   []Event
}

// NewMonitor builds a monitor for one run attempt. exact marks a run that
// already starts on exact kernels: drift/injection still report, but the
// engine knows there is nothing softer to fall back from.
func NewMonitor(cfg Config, exact bool) *Monitor {
	if cfg.DriftWindow <= 0 {
		cfg.DriftWindow = defaultDriftWindow
	}
	return &Monitor{cfg: cfg, window: make([]float64, 0, cfg.DriftWindow), exact: exact}
}

// Enabled reports whether checks are active.
func (m *Monitor) Enabled() bool { return m != nil && m.cfg.Enabled }

// Exact reports whether the run is already on exact kernels.
func (m *Monitor) Exact() bool { return m.exact }

// MarkExact records that the run has degraded to exact kernels; later
// trips will not attempt a second fallback.
func (m *Monitor) MarkExact() { m.exact = true }

// Policy returns the configured trip policy.
func (m *Monitor) Policy() Policy { return m.cfg.Policy }

// Check inspects one completed step: frc is the full force array, total
// the total potential+kinetic energy. It returns the trip event and true
// when a guard fired. The drift window is NOT updated
// here — call Observe with the energy the step finally settled on, so a
// recovered step feeds its exact-math energy to the window, not the
// corrupt one.
func (m *Monitor) Check(step int, frc []vec.V, total float64) (Event, bool) {
	if !m.Enabled() {
		return Event{}, false
	}
	if m.cfg.InjectStep > 0 && step == m.cfg.InjectStep && !m.injected && !m.exact {
		m.injected = true
		return Event{Step: step, Cause: CauseInjected, Value: total, Atom: -1}, true
	}
	for i, f := range frc {
		if !finiteVec(f) {
			return Event{Step: step, Cause: CauseForceNaN, Value: worstComponent(f), Atom: i}, true
		}
	}
	if math.IsNaN(total) || math.IsInf(total, 0) {
		return Event{Step: step, Cause: CauseEnergyNaN, Value: total, Atom: -1}, true
	}
	if m.cfg.DriftTol > 0 && m.filled {
		mean := 0.0
		for _, e := range m.window {
			mean += e
		}
		mean /= float64(len(m.window))
		if d := math.Abs(total - mean); d > m.cfg.DriftTol {
			return Event{Step: step, Cause: CauseDrift, Value: d, Atom: -1}, true
		}
	}
	return Event{}, false
}

// Observe feeds the step's settled total energy into the drift window.
func (m *Monitor) Observe(total float64) {
	if !m.Enabled() || m.cfg.DriftTol <= 0 {
		return
	}
	if len(m.window) < cap(m.window) {
		m.window = append(m.window, total)
	} else {
		m.window[m.next] = total
		m.next = (m.next + 1) % len(m.window)
	}
	m.filled = len(m.window) == cap(m.window)
}

// Record appends a trip to the monitor's log.
func (m *Monitor) Record(ev Event) { m.events = append(m.events, ev) }

// Events returns the trips recorded so far (shared backing array).
func (m *Monitor) Events() []Event { return m.events }

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
