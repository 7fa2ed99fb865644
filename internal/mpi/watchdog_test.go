package mpi

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
)

// stubFaults is a minimal cluster.FaultModel for transport tests.
type stubFaults struct {
	compScale  float64
	compNode   int
	bwDiv      float64
	latMul     float64
	crashRank  int
	crashAt    float64
	crashValid bool
}

func (s *stubFaults) ComputeScale(now float64, node int) float64 {
	if s.compScale > 0 && node == s.compNode {
		return s.compScale
	}
	return 1
}
func (s *stubFaults) LinkScale(now float64, node int) (float64, float64) {
	bw, lat := s.bwDiv, s.latMul
	if bw == 0 {
		bw = 1
	}
	if lat == 0 {
		lat = 1
	}
	return bw, lat
}
func (s *stubFaults) StallBoost(now float64) float64 { return 1 }
func (s *stubFaults) CrashTime(rank int) (float64, bool) {
	if s.crashValid && rank == s.crashRank {
		return s.crashAt, true
	}
	return 0, false
}
func (s *stubFaults) Install(m *cluster.Machine) {}

func TestWatchdogRecvTimeoutTyped(t *testing.T) {
	cfg := uniCluster(2, netmodel.TCPGigE())
	opts := Options{Watchdog: Watchdog{Timeout: 0.5, Retries: 1, Backoff: 2}}
	_, err := RunOpts(cfg, cluster.PentiumIII1GHz(), opts, func(r *Rank) {
		if r.ID == 0 {
			r.Recv(1, 7) // never sent
		}
	})
	if err == nil {
		t.Fatal("abandoned recv reported success")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got: %v", err)
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error not a *TimeoutError: %v", err)
	}
	if te.Rank != 0 || te.Partner != 1 || te.Op != "recv-match" {
		t.Fatalf("wrong attribution: %+v", te)
	}
	if te.At <= te.Since {
		t.Fatalf("timeout interval empty: %+v", te)
	}
	if strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("watchdog expiry surfaced as deadlock: %v", err)
	}
}

func TestWatchdogRendezvousSendTimeout(t *testing.T) {
	net := netmodel.TCPGigE()
	cfg := uniCluster(2, net)
	opts := Options{Watchdog: Watchdog{Timeout: 0.5, Retries: 0}}
	_, err := RunOpts(cfg, cluster.PentiumIII1GHz(), opts, func(r *Rank) {
		if r.ID == 0 {
			send(r, 1, 7, net.EagerLimit+1) // receiver never posts
		}
	})
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("want *TimeoutError, got: %v", err)
	}
	if te.Op != "send-rendezvous" || te.Rank != 0 || te.Partner != 1 {
		t.Fatalf("wrong attribution: %+v", te)
	}
}

func TestWatchdogRetriesSurviveLatePartner(t *testing.T) {
	cfg := uniCluster(2, netmodel.TCPGigE())
	// One round of 0.4 s is too short for a partner arriving at t=1.0, but
	// the backoff schedule (0.4+0.8+1.6) covers it.
	opts := Options{Watchdog: Watchdog{Timeout: 0.4, Retries: 3, Backoff: 2}}
	accts, err := RunOpts(cfg, cluster.PentiumIII1GHz(), opts, func(r *Rank) {
		if r.ID == 0 {
			r.Recv(1, 7)
		} else {
			r.Compute(1.0)
			send(r, 0, 7, 128)
		}
	})
	if err != nil {
		t.Fatalf("late-but-alive partner killed by watchdog: %v", err)
	}
	if accts[0].BytesRecv != 128 {
		t.Fatalf("recv bytes = %d, want 128", accts[0].BytesRecv)
	}
}

func TestInjectedCrashSurfacesTyped(t *testing.T) {
	cfg := uniCluster(2, netmodel.TCPGigE())
	faults := &stubFaults{crashRank: 1, crashAt: 0.5, crashValid: true}
	opts := Options{Faults: faults, Watchdog: Watchdog{Timeout: 0.5, Retries: 1, Backoff: 2}}
	_, err := RunOpts(cfg, cluster.PentiumIII1GHz(), opts, func(r *Rank) {
		for i := 0; i < 100; i++ {
			r.Compute(0.05)
			if r.ID == 0 {
				r.Recv(1, i)
			} else {
				send(r, 0, i, 64)
			}
		}
	})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed, got: %v", err)
	}
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("error not a *CrashError: %v", err)
	}
	if ce.Rank != 1 {
		t.Fatalf("crashed rank = %d, want 1", ce.Rank)
	}
	if ce.At < 0.5 {
		t.Fatalf("crash took effect at t=%g, before its schedule 0.5", ce.At)
	}
}

func TestStragglerScalesCompute(t *testing.T) {
	cfg := uniCluster(2, netmodel.TCPGigE())
	faults := &stubFaults{compScale: 3, compNode: 0}
	opts := Options{Faults: faults}
	accts, err := RunOpts(cfg, cluster.PentiumIII1GHz(), opts, func(r *Rank) {
		r.Compute(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if accts[0].Comp != 3 {
		t.Fatalf("straggler node compute = %g, want 3", accts[0].Comp)
	}
	if accts[1].Comp != 1 {
		t.Fatalf("healthy node compute = %g, want 1", accts[1].Comp)
	}
}

func TestLinkDegradationSlowsTransfer(t *testing.T) {
	net := netmodel.TCPGigE()
	run := func(f cluster.FaultModel) float64 {
		var end float64
		opts := Options{Faults: f}
		_, err := RunOpts(uniCluster(2, net), cluster.PentiumIII1GHz(), opts, func(r *Rank) {
			if r.ID == 0 {
				send(r, 1, 1, 1<<20)
			} else {
				r.Recv(0, 1)
				end = r.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	healthy := run(nil)
	degraded := run(&stubFaults{bwDiv: 8, latMul: 4})
	if degraded <= healthy {
		t.Fatalf("degraded transfer (%.6f) not slower than healthy (%.6f)", degraded, healthy)
	}
}

func TestRunOptsRejectsBadConfig(t *testing.T) {
	_, err := RunOpts(cluster.Config{Nodes: 0, CPUsPerNode: 1}, cluster.PentiumIII1GHz(), Options{}, func(r *Rank) {})
	if err == nil {
		t.Fatal("zero-node cluster accepted")
	}
	_, err = RunOpts(cluster.Config{Nodes: 2, CPUsPerNode: 3}, cluster.PentiumIII1GHz(), Options{}, func(r *Rank) {})
	if err == nil {
		t.Fatal("3-CPU nodes accepted")
	}
}

func TestModernCollectivesNonPowerOfTwo(t *testing.T) {
	net := netmodel.TCPGigE()
	for _, p := range []int{3, 5, 6, 12} {
		// Recursive-doubling allreduce: must terminate, and globally every
		// sent byte is received.
		accts := mustRun(t, uniCluster(p, net), func(r *Rank) {
			r.AllreduceRecursiveDoubling(4096, 0)
		})
		var sent, recv int64
		for _, a := range accts {
			sent += a.BytesSent
			recv += a.BytesRecv
		}
		if sent == 0 || sent != recv {
			t.Fatalf("p=%d allreduce: sent %d, recv %d bytes", p, sent, recv)
		}

		// Ring allgatherv with distinct block sizes: every rank relays all
		// blocks except its successor's (send side) and its own (recv side).
		blocks := make([]int, p)
		total := 0
		for i := range blocks {
			blocks[i] = 100 * (i + 1)
			total += blocks[i]
		}
		accts = mustRun(t, uniCluster(p, net), func(r *Rank) {
			r.AllgathervRing(blocks)
		})
		for id, a := range accts {
			wantSent := int64(total - blocks[(id+1)%p])
			wantRecv := int64(total - blocks[id])
			if a.BytesSent != wantSent {
				t.Fatalf("p=%d rank %d: sent %d bytes, want %d", p, id, a.BytesSent, wantSent)
			}
			if a.BytesRecv != wantRecv {
				t.Fatalf("p=%d rank %d: recv %d bytes, want %d", p, id, a.BytesRecv, wantRecv)
			}
		}
	}
}

func TestModernAllreduceByteSymmetryPerRank(t *testing.T) {
	// In the pow2 core every exchange is pairwise symmetric; remainder
	// ranks send one extra vector and get one back. So per rank,
	// sent == recv for every rank at any size.
	net := netmodel.TCPGigE()
	for _, p := range []int{3, 5, 6, 12} {
		accts := mustRun(t, uniCluster(p, net), func(r *Rank) {
			r.AllreduceRecursiveDoubling(1024, 0)
		})
		for id, a := range accts {
			if a.BytesSent != a.BytesRecv {
				t.Fatalf("p=%d rank %d: asymmetric bytes sent=%d recv=%d", p, id, a.BytesSent, a.BytesRecv)
			}
		}
	}
}
