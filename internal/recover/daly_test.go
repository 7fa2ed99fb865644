package recover

import (
	"math"
	"testing"
)

func TestMTTFEstimator(t *testing.T) {
	var e MTTFEstimator
	if _, ok := e.Estimate(); ok {
		t.Fatal("estimate with zero failures should not be ok")
	}
	e.Observe(100)
	if _, ok := e.Estimate(); ok {
		t.Fatal("progress without failures should not yield an estimate")
	}
	e.Fail(200)
	e.Fail(600)
	mttf, ok := e.Estimate()
	if !ok || mttf != 300 {
		t.Fatalf("Estimate = %v ok=%v, want 300", mttf, ok)
	}
	// Wall clocks only move forward.
	e.Observe(10)
	if mttf, _ := e.Estimate(); mttf != 300 {
		t.Fatalf("backwards Observe changed the estimate to %v", mttf)
	}
}

func TestYoungDaly(t *testing.T) {
	if got, want := YoungDaly(2, 100), math.Sqrt(400); got != want {
		t.Fatalf("YoungDaly(2,100) = %v, want %v", got, want)
	}
	if YoungDaly(0, 100) != 0 || YoungDaly(2, 0) != 0 {
		t.Fatal("degenerate inputs should yield 0")
	}
}

func TestTunerFixedFallback(t *testing.T) {
	tu := &Tuner{Fixed: 4, CkptCost: 1, MaxSteps: 100}
	tu.Progress(50, 10)
	steps, tuned := tu.Interval()
	if steps != 4 || tuned {
		t.Fatalf("zero-failure Interval = (%d, %v), want (4, false)", steps, tuned)
	}
	// A failure before any step cost was measured gives no grounds either.
	tu = &Tuner{Fixed: 4, CkptCost: 1, MaxSteps: 100}
	tu.Fail(10)
	if steps, tuned := tu.Interval(); steps != 4 || tuned {
		t.Fatalf("unmeasured Interval = (%d, %v), want (4, false)", steps, tuned)
	}
}

func TestTunerYoungDalyCadence(t *testing.T) {
	tu := &Tuner{Fixed: 4, CkptCost: 2, MaxSteps: 1000}
	tu.Progress(100, 20) // stepCost = 5
	tu.Fail(100)         // MTTF = 100
	steps, tuned := tu.Interval()
	want := int(math.Round(math.Sqrt(2*2*100) / 5)) // = round(20/5) = 4
	if !tuned || steps != want {
		t.Fatalf("Interval = (%d, %v), want (%d, true)", steps, tuned, want)
	}

	// More failures shrink MTTF and the cadence with it, floored at 1.
	for i := 0; i < 200; i++ {
		tu.Fail(100)
	}
	steps, _ = tu.Interval()
	if steps < 1 {
		t.Fatalf("cadence fell below 1: %d", steps)
	}

	// A huge MTTF is clamped to the run length.
	tu2 := &Tuner{Fixed: 4, CkptCost: 1e6, MaxSteps: 8}
	tu2.Progress(10, 10)
	tu2.Fail(10)
	steps, tuned = tu2.Interval()
	if !tuned || steps != 8 {
		t.Fatalf("clamped Interval = (%d, %v), want (8, true)", steps, tuned)
	}
}
