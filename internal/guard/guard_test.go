package guard

import (
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

func TestDisabledMonitorNeverTrips(t *testing.T) {
	m := NewMonitor(Config{}, false)
	bad := okForces(3)
	bad[1].Y = math.NaN()
	if _, ok := m.Check(1, bad, math.Inf(1)); ok {
		t.Error("disabled monitor tripped")
	}
	var nilMon *Monitor
	if nilMon.Enabled() {
		t.Error("nil monitor reports enabled")
	}
}

func TestForceNaNDetection(t *testing.T) {
	m := NewMonitor(Config{Enabled: true}, false)
	frc := okForces(5)
	frc[3].Z = math.Inf(-1)
	ev, ok := m.Check(7, frc, 10)
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
	m := NewMonitor(Config{Enabled: true}, false)
	ev, ok := m.Check(1, okForces(2), math.NaN())
	if !ok || ev.Cause != CauseEnergyNaN {
		t.Fatalf("got %+v ok=%v", ev, ok)
	}
}

func TestDriftWindow(t *testing.T) {
	m := NewMonitor(Config{Enabled: true, DriftTol: 5, DriftWindow: 4}, false)
	frc := okForces(2)

	// Window not yet filled: no drift verdicts, however wild the value.
	for i, e := range []float64{100, 101, 99, 1e6} {
		if _, ok := m.Check(i+1, frc, e); ok {
			t.Fatalf("tripped with unfilled window at step %d", i+1)
		}
		m.Observe(e)
	}

	// Filled window mean is dominated by the 1e6 outlier — feed sane
	// values until the window is all near 100 again.
	m2 := NewMonitor(Config{Enabled: true, DriftTol: 5, DriftWindow: 4}, false)
	for i, e := range []float64{100, 101, 99, 100} {
		m2.Check(i+1, frc, e)
		m2.Observe(e)
	}
	if ev, ok := m2.Check(5, frc, 102); ok {
		t.Fatalf("within-tolerance step tripped: %+v", ev)
	}
	ev, ok := m2.Check(6, frc, 120)
	if !ok || ev.Cause != CauseDrift {
		t.Fatalf("drift not caught: %+v ok=%v", ev, ok)
	}
	if ev.Value != 20 {
		t.Errorf("drift delta %g, want 20", ev.Value)
	}

	// DriftTol 0 disables drift checking entirely.
	m3 := NewMonitor(Config{Enabled: true}, false)
	for i := 0; i < 40; i++ {
		m3.Observe(1e12 * float64(i))
		if _, ok := m3.Check(i+1, frc, 1e12*float64(i)); ok {
			t.Fatal("drift tripped with DriftTol 0")
		}
	}
}

func TestInjectionConsumeOnce(t *testing.T) {
	m := NewMonitor(Config{Enabled: true, InjectStep: 3}, false)
	frc := okForces(1)
	if _, ok := m.Check(2, frc, 1); ok {
		t.Fatal("injected before InjectStep")
	}
	ev, ok := m.Check(3, frc, 1)
	if !ok || ev.Cause != CauseInjected {
		t.Fatalf("no injection at InjectStep: %+v ok=%v", ev, ok)
	}
	if _, ok := m.Check(3, frc, 1); ok {
		t.Fatal("injection fired twice")
	}

	// A monitor that starts exact never injects: the fallback path it
	// exercises does not exist there.
	me := NewMonitor(Config{Enabled: true, InjectStep: 3}, true)
	if _, ok := me.Check(3, frc, 1); ok {
		t.Fatal("injected on an exact-kernel run")
	}
}

func TestMarkExactAndRecord(t *testing.T) {
	m := NewMonitor(Config{Enabled: true}, false)
	if m.Exact() {
		t.Fatal("fresh monitor claims exact")
	}
	m.MarkExact()
	if !m.Exact() {
		t.Fatal("MarkExact did not stick")
	}
	m.Record(Event{Step: 1, Cause: CauseInjected})
	m.Record(Event{Step: 2, Cause: CauseDrift, Recovered: true})
	evs := m.Events()
	if len(evs) != 2 || evs[1].Step != 2 {
		t.Fatalf("event log %+v", evs)
	}
	if !strings.Contains(evs[1].String(), "recovered") {
		t.Errorf("recovered event string %q", evs[1])
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyFallback.String() != "fallback" || PolicyAbort.String() != "abort" {
		t.Error("policy strings changed")
	}
	if s := Policy(9).String(); !strings.Contains(s, "9") {
		t.Errorf("unknown policy string %q", s)
	}
}
