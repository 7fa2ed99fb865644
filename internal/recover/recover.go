// Package recover holds the records of localized crash recovery for the
// spatial domain decomposition: what one repair cost and how the Lost
// bucket splits by mechanism. The resilient driver in internal/pmd owns
// the restart machinery and prices every repair in one place
// (driver.rewind with recorder.replayPrice).
//
// It also hosts the failure-rate-aware checkpoint interval tuner (see
// daly.go): an online MTTF estimate over observed crash events feeding
// the Young/Daly optimal-interval formula.
package recover

// Event records one localized recovery: the crashed rank's domain was
// restored at its newest completed rebuild epoch and replayed forward
// while the healthy ranks parked at their next collective.
type Event struct {
	Rank        int // crashed rank (respawned in place, numbering unchanged)
	EpochStep   int // global step index of the restored epoch boundary
	ResumeStep  int // global step the whole cluster resumed from
	ReplaySteps int // steps the respawned rank re-executed

	Detect  float64 // virtual seconds until the watchdog typed the crash
	Restore float64 // respawn + restore cost (the flat RestartCost)
	Replay  float64 // virtual seconds the respawned rank re-executed
	Park    float64 // total healthy-rank park time at the next collective
}

// LostBreakdown splits the Lost that crash recoveries book by mechanism:
// Rewind is work discarded by a global rewind to the last full-cluster
// checkpoint (the dropped ranks' share included), Replay is the crashed
// domain's redo from its newest completed rebuild epoch, Park is healthy
// ranks waiting at the next collective for a localized repair to finish.
// Lost found on disk by a resume is in no component;
// pmd.ResilientResult.Breakdown states the full identity.
type LostBreakdown struct {
	Rewind float64
	Replay float64
	Park   float64
}

// Total sums the three components.
func (b LostBreakdown) Total() float64 { return b.Rewind + b.Replay + b.Park }
