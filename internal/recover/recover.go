// Package recover models localized crash recovery for the spatial domain
// decomposition: per-rank in-memory micro-checkpoints mirrored to a
// deterministic buddy rank at every neighbour-list rebuild epoch, plus a
// bounded per-epoch log of the halo messages healthy neighbours re-send
// while a respawned rank replays its domain forward. The package holds
// the bookkeeping and the cost/accounting model; the resilient driver in
// internal/pmd owns the actual restart machinery.
//
// It also hosts the failure-rate-aware checkpoint interval tuner (see
// daly.go): an online MTTF estimate over observed crash events feeding
// the Young/Daly optimal-interval formula.
package recover

// bytesPerCoord mirrors the transport layer's wire size of one vec.V
// (position or velocity).
const bytesPerCoord = 24

// Buddy returns the deterministic mirror rank of domain d on a
// dx×dy×dz domain grid: the next domain along the first subdivided axis
// ring. A buddy is always a distinct, usually halo-adjacent domain (the
// micro-checkpoint transfer rides the existing neighbour links); only a
// 1×1×1 grid maps a domain onto itself.
func Buddy(d, dx, dy, dz int) int {
	ix, iy, iz := d/(dy*dz), (d/dz)%dy, d%dz
	switch {
	case dx > 1:
		ix = (ix + 1) % dx
	case dy > 1:
		iy = (iy + 1) % dy
	case dz > 1:
		iz = (iz + 1) % dz
	}
	return (ix*dy+iy)*dz + iz
}

// MicroCheckpoint is one rank's in-memory snapshot at a rebuild epoch:
// its owned atoms (position + velocity) and the epoch's list origin,
// mirrored to the buddy rank.
type MicroCheckpoint struct {
	Step  int   // local step the epoch began at (-1: attempt start)
	Bytes int64 // mirrored payload (owned atoms × pos+vel)
}

// epochRec is the bookkeeping of one rebuild epoch: every rank's
// micro-checkpoint plus the per-step halo traffic healthy neighbours
// keep for re-sending during a replay.
type epochRec struct {
	step  int     // rebuild step (-1 for the attempt-start epoch)
	micro []int64 // per-rank micro-checkpoint bytes
	halo  []struct {
		step  int
		bytes []int64 // per-rank halo bytes shipped this step
	}
}

// logDepth bounds the in-memory retention: the current epoch plus the
// previous one. Ranks are never more than one step apart (every step
// ends in a collective), so the newest globally completed step is always
// covered by one of the two retained epochs — older message logs and
// micro-checkpoints are garbage the moment the next epoch begins.
const logDepth = 2

// Log is the attempt-wide micro-checkpoint store and halo message log.
// It is bookkeeping over sizes, not payloads: the resilient driver
// restores real state from its per-step history, the Log prices what the
// buddy transfer and the neighbour re-sends would move.
type Log struct {
	p          int
	dx, dy, dz int
	epochs     []epochRec // at most logDepth, oldest first
}

// NewLog sizes a log for p domain ranks on a dx×dy×dz grid.
func NewLog(p, dx, dy, dz int) *Log {
	return &Log{p: p, dx: dx, dy: dy, dz: dz}
}

// Buddy returns rank's mirror under the log's grid.
func (l *Log) Buddy(rank int) int { return Buddy(rank, l.dx, l.dy, l.dz) }

// BeginEpoch records a rebuild at the given local step (-1 for the
// attempt start): every rank takes a micro-checkpoint of its owned atoms
// and mirrors it to its buddy. Epochs older than the previous one are
// dropped — that is the boundedness contract.
func (l *Log) BeginEpoch(step int, owned []int) {
	e := epochRec{step: step, micro: make([]int64, l.p)}
	for r := 0; r < l.p; r++ {
		e.micro[r] = 2 * bytesPerCoord * int64(owned[r])
	}
	l.epochs = append(l.epochs, e)
	if len(l.epochs) > logDepth {
		l.epochs = l.epochs[len(l.epochs)-logDepth:]
	}
}

// LogStep appends one step's halo traffic (each domain ships its owned
// atoms out and receives the partial forces back) to the current epoch's
// message log.
func (l *Log) LogStep(step int, owned []int) {
	if len(l.epochs) == 0 {
		return
	}
	e := &l.epochs[len(l.epochs)-1]
	b := make([]int64, l.p)
	for r := 0; r < l.p; r++ {
		b[r] = 2 * bytesPerCoord * int64(owned[r])
	}
	e.halo = append(e.halo, struct {
		step  int
		bytes []int64
	}{step: step, bytes: b})
}

// Restore finds the newest micro-checkpoint of rank taken at or before
// maxStep — the restore point of a localized recovery. ok is false when
// even the attempt-start epoch is newer than maxStep (no step completed).
func (l *Log) Restore(rank, maxStep int) (MicroCheckpoint, bool) {
	for i := len(l.epochs) - 1; i >= 0; i-- {
		if l.epochs[i].step <= maxStep {
			return MicroCheckpoint{Step: l.epochs[i].step, Bytes: l.epochs[i].micro[rank]}, true
		}
	}
	return MicroCheckpoint{}, false
}

// Resent sums the halo bytes the given neighbour ranks re-send from the
// message log for a replay of the steps in (from, to].
func (l *Log) Resent(neighbours []int, from, to int) int64 {
	var total int64
	for _, e := range l.epochs {
		for _, s := range e.halo {
			if s.step <= from || s.step > to {
				continue
			}
			for _, nb := range neighbours {
				total += s.bytes[nb]
			}
		}
	}
	return total
}

// Event records one localized recovery: the crashed rank's domain was
// restored from its buddy's micro-checkpoint and replayed forward while
// the healthy ranks parked at their next collective.
type Event struct {
	Rank        int // crashed rank (respawned in place, numbering unchanged)
	Buddy       int // rank whose mirrored micro-checkpoint restored the domain
	EpochStep   int // global step index of the restored epoch boundary
	ResumeStep  int // global step the whole cluster resumed from
	ReplaySteps int // steps the respawned rank replayed from the message log

	RestoredBytes int64 // buddy → respawn micro-checkpoint transfer
	ResentBytes   int64 // halo messages neighbours re-sent during the replay

	Detect  float64 // virtual seconds until the watchdog typed the crash
	Restore float64 // respawn + buddy-restore cost
	Replay  float64 // virtual seconds the respawned rank re-executed
	Park    float64 // total healthy-rank park time at the next collective
}

// LostBreakdown splits the Lost that crash recoveries book by mechanism:
// Rewind is work discarded by a global rewind to the last full-cluster
// checkpoint (the dropped ranks' share included), Replay is the crashed
// domain's redo from its buddy micro-checkpoint, Park is healthy ranks
// waiting at the next collective for a localized repair to finish. Lost
// booked by a guard-fallback rewind or found on disk by a resume is in no
// component; pmd.ResilientResult.Breakdown states the full identity.
type LostBreakdown struct {
	Rewind float64
	Replay float64
	Park   float64
}

// Total sums the three components.
func (b LostBreakdown) Total() float64 { return b.Rewind + b.Replay + b.Park }
