package pmd

import "repro/internal/perf"

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
