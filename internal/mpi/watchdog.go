package mpi

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// ErrTimeout matches (via errors.Is) every watchdog expiry surfaced by Run.
var ErrTimeout = errors.New("mpi: watchdog timeout")

// ErrCrashed matches (via errors.Is) every injected rank crash surfaced by
// Run.
var ErrCrashed = errors.New("mpi: rank crashed")

// TimeoutError reports a blocking operation whose watchdog gave up: the
// offending rank, the partner it was waiting on, and the virtual times
// involved. Run returns it when a rank aborts this way.
type TimeoutError struct {
	Rank    int     // the rank that gave up waiting
	Partner int     // the rank it was waiting on (-1 if not applicable)
	Op      string  // the blocked operation ("recv-match", "send-rendezvous", ...)
	At      float64 // virtual time the watchdog gave up
	Since   float64 // virtual time the wait began
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("mpi: watchdog timeout: rank %d blocked in %s on rank %d since t=%.6f, gave up at t=%.6f",
		e.Rank, e.Op, e.Partner, e.Since, e.At)
}

// Is reports ErrTimeout so callers can errors.Is-match without the fields.
func (e *TimeoutError) Is(target error) bool { return target == ErrTimeout }

// CrashError reports an injected rank crash: the rank and the virtual time
// the crash took effect (the rank's next scheduling point at or after the
// scheduled crash time).
type CrashError struct {
	Rank int
	At   float64
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("mpi: rank %d crashed at t=%.6f", e.Rank, e.At)
}

// Is reports ErrCrashed so callers can errors.Is-match without the fields.
func (e *CrashError) Is(target error) bool { return target == ErrCrashed }

// Watchdog bounds every blocking wait in the MPI layer with a virtual-time
// timeout and a retry budget. The zero value disables it, restoring the
// MPICH-era behaviour where a lost partner hangs the job until the sim
// deadlock detector fires.
type Watchdog struct {
	Timeout float64 // seconds of virtual time per wait round; <= 0 disables
	Retries int     // additional rounds granted after the first expiry
	Backoff float64 // timeout multiplier applied per round (< 1 treated as 1)
}

// Enabled reports whether the watchdog bounds waits.
func (w Watchdog) Enabled() bool { return w.Timeout > 0 }

// DefaultWatchdog is a generous default for fault scenarios: patient
// enough for severe stragglers, bounded enough that a crashed partner is
// detected in a few hundred virtual seconds.
func DefaultWatchdog() Watchdog {
	return Watchdog{Timeout: 30, Retries: 2, Backoff: 2}
}

// wdState tracks one logical blocking wait across its park rounds.
type wdState struct {
	tries int
	wait  float64
	t0    float64
}

// armPark parks p — a rank's own process or a transfer helper — for one
// round of a wait loop: unconditionally with the watchdog disabled, bounded
// by the current round's timeout otherwise. The caller returns from its
// step and reads the result with parkOutcome once p runs again.
func (w *World) armPark(p *sim.Proc, s *wdState) {
	if !w.Wd.Enabled() {
		p.ParkStep()
		return
	}
	if s.wait == 0 {
		s.wait = w.Wd.Timeout
		s.t0 = p.Now()
	}
	p.ParkTimeoutStep(s.wait)
}

// parkOutcome consumes the retry budget when the park armed by armPark
// expired. It returns false when the budget is spent — a rank's call
// records a *TimeoutError, which the rank raises and Run converts to a
// typed error; a helper process abandons the operation quietly.
func (w *World) parkOutcome(p *sim.Proc, s *wdState) bool {
	if !p.TimedOut() {
		return true // woken by progress (or an unrelated deposit)
	}
	s.tries++
	if s.tries > w.Wd.Retries {
		return false
	}
	if w.Wd.Backoff > 1 {
		s.wait *= w.Wd.Backoff
	}
	return true
}

// timeout builds the typed abort error for an exhausted wait.
func (s *wdState) timeout(r *Rank, op string, partner int) *TimeoutError {
	return &TimeoutError{Rank: r.ID, Partner: partner, Op: op, At: r.Now(), Since: s.t0}
}

// checkCrash aborts the rank with a *CrashError once an injected crash has
// taken effect. The panic unwinds the rank's function and is converted to
// a typed error by Run; other ranks notice the loss through their
// watchdogs.
func (r *Rank) checkCrash() {
	if r.crashed {
		panic(&CrashError{Rank: r.ID, At: r.Now()})
	}
}
