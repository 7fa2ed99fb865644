package mpi

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/trace"
)

// callLog is an Observer that keeps the collective calls.
type callLog struct{ calls []trace.Call }

func (l *callLog) Interval(trace.Event)    {}
func (l *callLog) Collective(c trace.Call) { l.calls = append(l.calls, c) }

// TestEveryCollectiveReportsOnce: each public collective of the three
// middlewares reaches the observer once per call, from rank 0, with the
// world size, and books one latency sample per rank under its op (a
// sparse all-to-all's under alltoallv) — at p = 1 too.
func TestEveryCollectiveReportsOnce(t *testing.T) {
	for _, p := range []int{1, 4} {
		dense, blocks := make([][]int, p), make([]int, p)
		for i := range dense {
			dense[i] = make([]int, p)
			if j := (i + 1) % p; j != i {
				dense[i][j] = 64
			}
			blocks[i] = 32
		}
		halo := sparseOf(dense).Named("halo")
		for _, op := range []struct {
			kind string
			call func(r *Rank)
		}{
			{"barrier", (*Rank).Barrier},
			{"allreduce", func(r *Rank) { r.Allreduce(64, 1e-6) }},
			{"allgatherv", func(r *Rank) { r.Allgatherv(blocks) }},
			{"alltoallv", func(r *Rank) { r.Alltoallv(dense) }},
			{"alltoallv_sparse", func(r *Rank) { r.AlltoallvPartners(halo) }},
			{"alltoallv_sparse", func(r *Rank) { r.AlltoallvSparse(dense) }},
			{"allreduce", func(r *Rank) { r.AllreduceRecursiveDoubling(64, 1e-6) }},
			{"allgatherv", func(r *Rank) { r.AllgathervRing(blocks) }},
			{"barrier", func(r *Rank) { r.CMPI().Barrier() }},
			{"allreduce", func(r *Rank) { r.CMPI().Allreduce(64, 1e-6) }},
			{"allgatherv", func(r *Rank) { r.CMPI().Allgatherv(blocks) }},
			{"alltoallv", func(r *Rank) { r.CMPI().Alltoallv(dense) }},
			{"alltoallv_sparse", func(r *Rank) { r.CMPI().AlltoallvSparse(halo) }},
		} {
			log, reg := &callLog{}, obs.NewRegistry()
			if _, err := RunOpts(uniCluster(p, netmodel.TCPGigE()), cluster.PentiumIII1GHz(),
				Options{Observer: log, Obs: reg}, op.call); err != nil {
				t.Fatal(err)
			}
			if len(log.calls) != 1 || log.calls[0].Kind != op.kind || log.calls[0].Ranks != p {
				t.Errorf("p=%d %s: the observer got %+v", p, op.kind, log.calls)
			}
			var samples uint64
			for _, pt := range reg.Snapshot() {
				if pt.Name == "repro_mpi_collective_seconds" && pt.Labels["op"] == strings.TrimSuffix(op.kind, "_sparse") {
					samples = pt.Count
				}
			}
			if samples != uint64(p) {
				t.Errorf("p=%d %s: %d latency samples, want one per rank", p, op.kind, samples)
			}
		}
	}
}
