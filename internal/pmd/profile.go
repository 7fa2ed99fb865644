package pmd

import (
	"repro/internal/mpi"
	"repro/internal/perf"
)

// perfComms wraps a middleware for the attribution timeline: rank 0's
// comms record every collective (kind, byte matrix) before forwarding,
// so the communication matrix covers the halo exchanges, migrations and
// pencil transposes without the decompositions knowing about perf.
// Only rank 0 is wrapped — collectives are symmetric, so one observer
// records each invocation exactly once.
type perfComms struct {
	inner comms
	tl    *perf.Timeline
}

func (c perfComms) Allreduce(bytes int, reduceOp float64) {
	c.tl.Collective("allreduce", int64(bytes))
	c.inner.Allreduce(bytes, reduceOp)
}

func (c perfComms) Allgatherv(blocks []int) {
	c.tl.Blocks("allgatherv", blocks)
	c.inner.Allgatherv(blocks)
}

func (c perfComms) Alltoallv(sizes [][]int) {
	c.tl.Matrix("alltoallv", sizes)
	c.inner.Alltoallv(sizes)
}

func (c perfComms) AlltoallvSparse(sizes [][]int) {
	c.tl.Matrix("alltoallv_sparse", sizes)
	c.inner.AlltoallvSparse(sizes)
}

func (c perfComms) Barrier() {
	c.tl.Collective("barrier", 0)
	c.inner.Barrier()
}

// perfAccts converts per-rank transport accounting to the perf mirror.
func perfAccts(acct []mpi.Accounting) []perf.RankAcct {
	out := make([]perf.RankAcct, len(acct))
	for i, a := range acct {
		out[i] = perf.RankAcct{Comp: a.Comp, Comm: a.Comm, Sync: a.Sync, Lost: a.Lost}
	}
	return out
}

// timelineFromTimings rebuilds a sample timeline from a result's timing
// table — the path for memoized/cached results that ran without a live
// Config.Perf timeline. The samples are the very same PhaseSamples, so
// the derived profile is identical except for the communication
// aggregates only a live timeline observes.
func timelineFromTimings(p int, timings [][]StepTiming, base int) *perf.Timeline {
	steps := 0
	for _, row := range timings {
		if base+len(row) > steps {
			steps = base + len(row)
		}
	}
	tl := perf.NewTimeline(p, steps)
	for rank, row := range timings {
		for step, st := range row {
			tl.Record(rank, base+step, perf.PhaseClassic, st.Classic)
			tl.Record(rank, base+step, perf.PhasePME, st.PME)
		}
	}
	return tl
}

// Profile builds the attribution profile of a completed run. Pass the
// run's Config.Perf timeline to include the communication matrices it
// observed; with tl == nil the samples are rebuilt from r.Timings (the
// memoized-figure path) and the profile carries no comm aggregates.
// The bucket identity compute+comm+wait+imbalance+recovery == Wall
// holds either way — buckets come from the per-rank accounting.
func (r *Result) Profile(tl *perf.Timeline) *perf.Profile {
	if tl == nil {
		tl = timelineFromTimings(r.P, r.Timings, 0)
	}
	return tl.Analyze(r.Wall, perfAccts(r.Acct), nil)
}

// Profile builds the attribution profile of a fault-tolerant run: the
// buckets come from the merged per-attempt accounting (so the recovery
// bucket is the run's real Lost time) and the recovery detail splits it
// by mechanism. With tl == nil the samples cover the completing
// attempt's steps, placed at their global offsets.
func (r *ResilientResult) Profile(tl *perf.Timeline) *perf.Profile {
	if tl == nil {
		base := 0
		if r.Final != nil && len(r.Final.Timings) > 0 {
			if n := len(r.Final.Timings[0]); len(r.Energies) > n {
				base = len(r.Energies) - n
			}
		}
		var timings [][]StepTiming
		if r.Final != nil {
			timings = r.Final.Timings
		}
		tl = timelineFromTimings(r.Ranks, timings, base)
	}
	det := &perf.RecoveryDetail{
		RewindSeconds: r.Breakdown.Rewind,
		ReplaySeconds: r.Breakdown.Replay,
		ParkSeconds:   r.Breakdown.Park,
		Events:        len(r.Recoveries),
	}
	return tl.Analyze(r.Wall, perfAccts(r.Acct), det)
}
