package recover

import "math"

// MTTFEstimator maintains an online mean-time-to-failure estimate over
// observed crash events: cumulative virtual wall divided by the number
// of failures. With zero failures there is no estimate.
type MTTFEstimator struct {
	failures int
	elapsed  float64
}

// Observe advances the cumulative virtual wall the estimator has
// witnessed. Wall clocks only move forward; a smaller value is ignored.
func (e *MTTFEstimator) Observe(wall float64) {
	if wall > e.elapsed {
		e.elapsed = wall
	}
}

// Fail records one crash at the given cumulative wall.
func (e *MTTFEstimator) Fail(wall float64) {
	e.Observe(wall)
	e.failures++
}

// Estimate returns the current MTTF in virtual seconds; ok is false
// until at least one failure has been observed.
func (e *MTTFEstimator) Estimate() (mttf float64, ok bool) {
	if e.failures == 0 || e.elapsed <= 0 {
		return 0, false
	}
	return e.elapsed / float64(e.failures), true
}

// YoungDaly returns the Young/Daly first-order optimal checkpoint
// interval τ = sqrt(2·C·M) for checkpoint cost C and MTTF M, in the
// same time unit as its inputs.
func YoungDaly(ckptCost, mttf float64) float64 {
	if ckptCost <= 0 || mttf <= 0 {
		return 0
	}
	return math.Sqrt(2 * ckptCost * mttf)
}

// Tuner converts the Young/Daly interval into a durable-checkpoint
// cadence in MD steps. Until the first observed failure it passes the
// configured fixed cadence through untouched; after that it re-derives
// the cadence from the running MTTF estimate and the measured virtual
// cost per step.
type Tuner struct {
	Fixed    int     // configured cadence, the zero-failure fallback
	CkptCost float64 // virtual seconds per durable checkpoint
	MaxSteps int     // cadence ceiling (the run length)

	est      MTTFEstimator
	stepCost float64 // virtual seconds per completed MD step, measured
}

// Progress feeds the tuner the run's cumulative wall and completed step
// count, refreshing the per-step cost estimate.
func (t *Tuner) Progress(wall float64, steps int) {
	t.est.Observe(wall)
	if steps > 0 && wall > 0 {
		t.stepCost = wall / float64(steps)
	}
}

// Fail records one crash at the given cumulative wall.
func (t *Tuner) Fail(wall float64) { t.est.Fail(wall) }

// Estimate exposes the underlying MTTF estimate.
func (t *Tuner) Estimate() (mttf float64, ok bool) { return t.est.Estimate() }

// Interval returns the cadence in steps: the fixed fallback until the
// first failure, then round(τ_opt / stepCost) clamped to [1, MaxSteps].
// tuned reports whether the tuner has had grounds to deviate from the
// fixed cadence.
func (t *Tuner) Interval() (steps int, tuned bool) {
	mttf, ok := t.est.Estimate()
	if !ok || t.CkptCost <= 0 || t.stepCost <= 0 {
		return t.Fixed, false
	}
	opt := YoungDaly(t.CkptCost, mttf)
	n := int(math.Round(opt / t.stepCost))
	if n < 1 {
		n = 1
	}
	if t.MaxSteps > 0 && n > t.MaxSteps {
		n = t.MaxSteps
	}
	return n, true
}
