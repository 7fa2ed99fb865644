package md

import (
	"fmt"

	"repro/internal/ff"
	"repro/internal/guard"
	"repro/internal/work"
)

// UseExactKernels degrades the engine to the reference (exact) kernels at
// runtime: the tabulated nonbonded kernel is replaced by the reference
// pair loop. PME has one path and keeps it. Positions, velocities and
// forces are untouched; the neighbour list is invalidated so the next
// evaluation rebuilds it under the new force field. A no-op when the
// engine is already exact.
func (e *Engine) UseExactKernels() {
	if e.Cfg.FF.ExactKernels {
		return
	}
	e.Cfg.FF.ExactKernels = true
	e.FF = ff.New(e.Sys, e.Cfg.FF)
	e.nbk = e.FF.NewNonbondedKernel()
	e.lister = nil
	e.listOrigin = nil
}

// StepGuarded advances one velocity-Verlet step under the numeric
// guardrails. step is the 1-based MD step number (used for event records
// and the injection hook). With the monitor disabled it is exactly Step.
//
// On a guard trip with PolicyFallback the engine rewinds to the pre-step
// state, degrades to exact kernels (UseExactKernels), re-evaluates forces
// and redoes the step on the exact pair loop; the trip is recorded as a
// recovered Event and the run continues. With PolicyAbort — or when the engine is
// already exact, so there is nothing softer to fall back from — the trip
// comes back as a *guard.TripError.
func (e *Engine) StepGuarded(m *guard.Monitor, step int, w, wPME *work.Counters) (EnergyReport, error) {
	if !m.Enabled() {
		return e.Step(w, wPME), nil
	}
	pre := e.Snapshot()
	rep := e.Step(w, wPME)
	ev, tripped := m.Check(step, e.Frc, rep.Total())
	if !tripped {
		m.Observe(rep.Total())
		return rep, nil
	}
	if m.Policy() == guard.PolicyAbort || m.Exact() {
		m.Record(ev)
		return rep, &guard.TripError{Ev: ev}
	}
	if err := e.Restore(pre); err != nil {
		return rep, fmt.Errorf("md: guard fallback rewind: %w", err)
	}
	e.UseExactKernels()
	m.MarkExact()
	// Forces in the pre-step snapshot came from the tabulated pair kernel;
	// re-evaluate them on the exact pair loop before redoing the step.
	e.ComputeForces(w, wPME)
	rep = e.Step(w, wPME)
	ev.Recovered = true
	m.Record(ev)
	m.Observe(rep.Total())
	return rep, nil
}
