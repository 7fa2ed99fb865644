package pmd

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/perf"
)

// TestCollectiveViewsAgree: the collective latency histograms and the
// communication log count the same calls under every middleware and both
// decompositions. The log records a call once and the histograms take one
// sample per rank, so each op's count is p × the log's calls, a sparse
// all-to-all counted as alltoallv. (Once only MPI's own collectives fed
// the histograms: a CMPI run's read 0, and MPI-modern's allreduce and
// allgatherv did.)
func TestCollectiveViewsAgree(t *testing.T) {
	for _, mw := range []MiddlewareKind{MiddlewareMPI, MiddlewareCMPI, MiddlewareModern} {
		for _, c := range []struct {
			decomp DecompKind
			p      int
		}{{DecompReplicated, 4}, {DecompDomain, 8}} {
			reg, log := obs.NewRegistry(), perf.NewTimeline()
			res, err := Run(clusterCfg(c.p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), Config{
				System:     testSystem(100, 24, 1),
				MD:         testMDConfig(),
				Steps:      3,
				Middleware: mw,
				Decomp:     c.decomp,
				Obs:        reg,
				Observer:   log,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]uint64{}
			for _, st := range res.Profile().Collectives {
				want[strings.TrimSuffix(st.Kind, "_sparse")] += uint64(c.p) * uint64(st.Calls)
			}
			got := map[string]uint64{}
			for _, pt := range reg.Snapshot() {
				if pt.Name == "repro_mpi_collective_seconds" && pt.Count > 0 {
					got[pt.Labels["op"]] = pt.Count
				}
			}
			if len(want) == 0 {
				t.Fatalf("%s %s p=%d: the log recorded no collective", mw, c.decomp, c.p)
			}
			for op, n := range want {
				if got[op] != n {
					t.Errorf("%s %s p=%d: %s histogram counts %d, want p × the log's calls = %d",
						mw, c.decomp, c.p, op, got[op], n)
				}
			}
			for op, n := range got {
				if want[op] == 0 {
					t.Errorf("%s %s p=%d: %s histogram counts %d calls the log never saw", mw, c.decomp, c.p, op, n)
				}
			}
		}
	}
}
