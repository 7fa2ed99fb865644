package pmd

import (
	"repro/internal/perf"
)

// perfComms wraps a middleware for the communication log: rank 0's
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

// Profile builds the attribution profile of a completed run from its own
// record: the samples are r.Timings, the buckets come from r.Acct (so
// compute+comm+wait+imbalance+recovery == Wall), and r.Comm, when the run
// fed one, adds the communication aggregates.
func (r *Result) Profile() *perf.Profile {
	return perf.Analyze(r.Timings, 0, r.Wall, r.Acct, nil, r.Comm)
}

// Profile builds the attribution profile of a fault-tolerant run: the
// buckets come from the merged per-attempt accounting (so the recovery
// bucket is the run's real Lost time) and the recovery detail splits it
// by mechanism. The samples are the completing attempt's — the steps a
// rewind discarded or an earlier process ran have no rows here — at their
// global offsets.
func (r *ResilientResult) Profile() *perf.Profile {
	det := &perf.RecoveryDetail{
		RewindSeconds: r.Breakdown.Rewind,
		ReplaySeconds: r.Breakdown.Replay,
		ParkSeconds:   r.Breakdown.Park,
		Events:        len(r.Recoveries),
	}
	return perf.Analyze(r.Final.Timings, r.finalBase, r.Wall, r.Acct, det, r.Final.Comm)
}
