package mpi_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/netmodel"
)

// runCMPI runs fn on every rank's CMPI layer of a p-node job. The Sync
// tests call Barrier, which is CMPI's Sync.
func runCMPI(t *testing.T, p int, net netmodel.Params, fn func(mpi.CMPI)) []mpi.Accounting {
	t.Helper()
	cfg := cluster.Config{Nodes: p, CPUsPerNode: 1, Net: net, Seed: 1}
	accts, err := mpi.RunOpts(cfg, cluster.PentiumIII1GHz(), mpi.Options{}, func(r *mpi.Rank) {
		fn(r.CMPI())
	})
	if err != nil {
		t.Fatal(err)
	}
	return accts
}

func TestCMPISyncCompletesAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		done := 0
		runCMPI(t, p, netmodel.SCoreGigE(), func(m mpi.CMPI) {
			m.Barrier()
			done++
		})
		if done != p {
			t.Fatalf("p=%d: %d ranks finished sync", p, done)
		}
	}
}

func TestCMPISyncTimeIsAllSync(t *testing.T) {
	accts := runCMPI(t, 4, netmodel.TCPGigE(), func(m mpi.CMPI) {
		m.Barrier()
	})
	for i, a := range accts {
		if a.Comm > 1e-12 {
			t.Fatalf("rank %d booked %g comm during CMPI sync", i, a.Comm)
		}
		if a.Sync <= 0 {
			t.Fatalf("rank %d booked no sync time", i)
		}
	}
}

func TestCMPISyncCostGrowsWithRanks(t *testing.T) {
	var prev float64
	for _, p := range []int{2, 4, 8} {
		accts := runCMPI(t, p, netmodel.TCPGigE(), func(m mpi.CMPI) {
			m.Barrier()
		})
		var worst float64
		for _, a := range accts {
			if a.Sync > worst {
				worst = a.Sync
			}
		}
		if worst <= prev {
			t.Fatalf("sync cost did not grow: %g at p=%d after %g", worst, p, prev)
		}
		prev = worst
	}
}

func TestCMPIAllreduceCompletes(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		done := 0
		runCMPI(t, p, netmodel.SCoreGigE(), func(m mpi.CMPI) {
			m.Allreduce(85000, 10e-6)
			done++
		})
		if done != p {
			t.Fatalf("p=%d: %d finished", p, done)
		}
	}
}

func TestCMPIAllreduceVolumeExceedsMPI(t *testing.T) {
	// The unsegmented ring moves (p−1)·bytes per rank; MPICH's reduce+bcast
	// moves at most ~2·bytes·log p / p per hop chain. CMPI must ship more
	// bytes overall at p=8.
	const bytes = 85000
	cmpiAccts := runCMPI(t, 8, netmodel.SCoreGigE(), func(m mpi.CMPI) {
		m.Allreduce(bytes, 0)
	})
	cfg := cluster.Config{Nodes: 8, CPUsPerNode: 1, Net: netmodel.SCoreGigE(), Seed: 1}
	mpiAccts, err := mpi.RunOpts(cfg, cluster.PentiumIII1GHz(), mpi.Options{}, func(r *mpi.Rank) {
		r.Allreduce(bytes, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	var cb, mb int64
	for i := range cmpiAccts {
		cb += cmpiAccts[i].BytesSent
		mb += mpiAccts[i].BytesSent
	}
	if cb <= mb {
		t.Fatalf("CMPI shipped %d bytes, MPI %d — expected CMPI to ship more", cb, mb)
	}
}

func TestCMPIAllgathervCompletes(t *testing.T) {
	for _, p := range []int{2, 3, 8} {
		done := 0
		blocks := make([]int, p)
		for i := range blocks {
			blocks[i] = 1000 + i
		}
		runCMPI(t, p, netmodel.MyrinetGM(), func(m mpi.CMPI) {
			m.Allgatherv(blocks)
			done++
		})
		if done != p {
			t.Fatalf("p=%d: %d finished", p, done)
		}
	}
}

func TestCMPIAlltoallvCompletes(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		sizes := make([][]int, p)
		for i := range sizes {
			sizes[i] = make([]int, p)
			for j := range sizes[i] {
				if i != j {
					sizes[i][j] = 5000
				}
			}
		}
		done := 0
		runCMPI(t, p, netmodel.TCPGigE(), func(m mpi.CMPI) {
			m.Alltoallv(sizes)
			done++
		})
		if done != p {
			t.Fatalf("p=%d: %d finished", p, done)
		}
	}
}

func TestCMPISlowerThanMPIOnTCP(t *testing.T) {
	// The paper's headline middleware result: the same communication
	// pattern through CMPI costs more on TCP than through raw MPI.
	const bytes = 85000
	pattern := func(useCMPI bool) float64 {
		cfg := cluster.Config{Nodes: 8, CPUsPerNode: 1, Net: netmodel.TCPGigE(), Seed: 1}
		var worst float64
		_, err := mpi.RunOpts(cfg, cluster.PentiumIII1GHz(), mpi.Options{}, func(r *mpi.Rank) {
			for i := 0; i < 5; i++ {
				if useCMPI {
					r.CMPI().Allreduce(bytes, 0)
				} else {
					r.Allreduce(bytes, 0)
				}
			}
			if r.Now() > worst {
				worst = r.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return worst
	}
	cmpiT := pattern(true)
	mpiT := pattern(false)
	if cmpiT <= mpiT {
		t.Fatalf("CMPI (%g s) not slower than MPI (%g s) on TCP at p=8", cmpiT, mpiT)
	}
}

func TestCMPIDeterministic(t *testing.T) {
	one := func() []mpi.Accounting {
		return runCMPI(t, 4, netmodel.TCPGigE(), func(m mpi.CMPI) {
			m.Allreduce(50000, 0)
			m.Barrier()
		})
	}
	a, b := one(), one()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d non-deterministic: %+v vs %+v", i, a[i], b[i])
		}
	}
}
