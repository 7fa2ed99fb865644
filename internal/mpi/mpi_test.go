package mpi

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/work"
)

func uniCluster(nodes int, net netmodel.Params) cluster.Config {
	return cluster.Config{Nodes: nodes, CPUsPerNode: 1, Net: net, Seed: 1}
}

func mustRun(t *testing.T, cfg cluster.Config, fn func(*Rank)) []Accounting {
	t.Helper()
	accts, err := Run(cfg, cluster.PentiumIII1GHz(), fn)
	if err != nil {
		t.Fatal(err)
	}
	return accts
}

func TestPingPong(t *testing.T) {
	var times []float64
	mustRun(t, uniCluster(2, netmodel.SCoreGigE()), func(r *Rank) {
		const n = 10
		if r.ID == 0 {
			for i := 0; i < n; i++ {
				r.Send(1, 7, 1024)
				r.Recv(1, 8)
			}
			times = append(times, r.Now())
		} else {
			for i := 0; i < n; i++ {
				r.Recv(0, 7)
				r.Send(0, 8, 1024)
			}
		}
	})
	if len(times) != 1 || times[0] <= 0 {
		t.Fatalf("ping-pong produced times %v", times)
	}
	// Sanity: 20 messages of 1 KB on SCore ≈ 20·(19µs + 14µs + 12µs) plus
	// bandwidth — between 0.5 ms and 2 ms.
	if times[0] < 0.5e-3 || times[0] > 2.5e-3 {
		t.Fatalf("ping-pong round time %g s implausible", times[0])
	}
}

func TestLatencyOrdering(t *testing.T) {
	// One small-message ping-pong per network: lower-latency networks must
	// complete sooner.
	elapsed := map[string]float64{}
	for _, net := range netmodel.All() {
		var tEnd float64
		mustRun(t, uniCluster(2, net), func(r *Rank) {
			if r.ID == 0 {
				for i := 0; i < 20; i++ {
					r.Send(1, 1, 64)
					r.Recv(1, 2)
				}
				tEnd = r.Now()
			} else {
				for i := 0; i < 20; i++ {
					r.Recv(0, 1)
					r.Send(0, 2, 64)
				}
			}
		})
		elapsed[net.Name] = tEnd
	}
	tcp := elapsed["TCP/IP on Ethernet"]
	score := elapsed["SCore on Ethernet"]
	myri := elapsed["Myrinet"]
	if !(myri < score && score < tcp) {
		t.Fatalf("latency ordering violated: tcp=%g score=%g myrinet=%g", tcp, score, myri)
	}
}

func TestBandwidthOrdering(t *testing.T) {
	// Large transfers: Myrinet > SCore > TCP effective bandwidth.
	speed := map[string]float64{}
	for _, net := range netmodel.All() {
		var tEnd float64
		const bytes = 4 << 20
		mustRun(t, uniCluster(2, net), func(r *Rank) {
			if r.ID == 0 {
				r.Send(1, 1, bytes)
			} else {
				r.Recv(0, 1)
				tEnd = r.Now()
			}
		})
		speed[net.Name] = bytes / tEnd
	}
	if !(speed["Myrinet"] > speed["SCore on Ethernet"] && speed["SCore on Ethernet"] > speed["TCP/IP on Ethernet"]) {
		t.Fatalf("bandwidth ordering violated: %v", speed)
	}
}

func TestMessageOrderPreserved(t *testing.T) {
	// Two messages with the same tag from the same sender must match in
	// order (sizes distinguish them).
	var sizes []int
	mustRun(t, uniCluster(2, netmodel.MyrinetGM()), func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 5, 100)
			r.Send(1, 5, 200)
		} else {
			sizes = append(sizes, r.Recv(0, 5), r.Recv(0, 5))
		}
	})
	if sizes[0] != 100 || sizes[1] != 200 {
		t.Fatalf("message order violated: %v", sizes)
	}
}

func TestRendezvousBlocksUntilReceiverPosts(t *testing.T) {
	// A rendezvous-size send must not complete before the receiver posts.
	net := netmodel.TCPGigE()
	var sendDone, recvPosted float64
	mustRun(t, uniCluster(2, net), func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 1, net.EagerLimit*4)
			sendDone = r.Now()
		} else {
			r.Compute(50e-3) // receiver arrives late
			recvPosted = r.Now()
			r.Recv(0, 1)
		}
	})
	if sendDone < recvPosted {
		t.Fatalf("rendezvous send completed at %g before receiver posted at %g", sendDone, recvPosted)
	}
}

func TestEagerCompletesBeforeReceiverPosts(t *testing.T) {
	net := netmodel.TCPGigE()
	var sendDone, recvPosted float64
	mustRun(t, uniCluster(2, net), func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 1, 1024)
			sendDone = r.Now()
		} else {
			r.Compute(50e-3)
			recvPosted = r.Now()
			r.Recv(0, 1)
		}
	})
	if sendDone >= recvPosted {
		t.Fatalf("eager send blocked until receiver posted (%g vs %g)", sendDone, recvPosted)
	}
}

func TestSyncVsCommAccounting(t *testing.T) {
	// A receiver waiting long before the sender starts books mostly sync.
	accts := mustRun(t, uniCluster(2, netmodel.SCoreGigE()), func(r *Rank) {
		if r.ID == 0 {
			r.Compute(10e-3)
			r.Send(1, 1, 4096)
		} else {
			r.Recv(0, 1)
		}
	})
	recv := accts[1]
	if recv.Sync < 9e-3 {
		t.Fatalf("receiver sync %g, want ≈10 ms of partner waiting", recv.Sync)
	}
	if recv.Comm <= 0 || recv.Comm > 2e-3 {
		t.Fatalf("receiver comm %g out of range", recv.Comm)
	}
	if recv.BytesRecv != 4096 || accts[0].BytesSent != 4096 {
		t.Fatalf("byte accounting wrong: %+v %+v", accts[0], recv)
	}
}

func TestComputeWorkUsesCostModel(t *testing.T) {
	cost := cluster.PentiumIII1GHz()
	w := work.Counters{PairEvals: 1000000}
	want := cost.Seconds(w)
	accts := mustRun(t, uniCluster(1, netmodel.SCoreGigE()), func(r *Rank) {
		r.ComputeWork(w)
	})
	if math.Abs(accts[0].Comp-want) > 1e-12 {
		t.Fatalf("Comp = %g, want %g", accts[0].Comp, want)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, p := range []int{2, 3, 4, 8} {
		var after []float64
		mustRun(t, uniCluster(p, netmodel.SCoreGigE()), func(r *Rank) {
			r.Compute(float64(r.ID) * 1e-3) // staggered arrivals
			r.Barrier()
			after = append(after, r.Now())
		})
		slowest := float64(p-1) * 1e-3
		for _, tm := range after {
			if tm < slowest {
				t.Fatalf("p=%d: rank left barrier at %g before slowest arrival %g", p, tm, slowest)
			}
		}
	}
}

func TestBarrierTimeIsSync(t *testing.T) {
	accts := mustRun(t, uniCluster(4, netmodel.TCPGigE()), func(r *Rank) {
		r.Compute(float64(3-r.ID) * 2e-3)
		r.Barrier()
	})
	for i, a := range accts {
		if a.Comm > a.Sync {
			t.Fatalf("rank %d: barrier booked more comm (%g) than sync (%g)", i, a.Comm, a.Sync)
		}
	}
}

func TestBcastReachesAll(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		for root := 0; root < p; root += 2 {
			got := make([]int, p)
			mustRun(t, uniCluster(p, netmodel.MyrinetGM()), func(r *Rank) {
				got[r.ID] = r.Bcast(root, 5000)
			})
			for i, b := range got {
				if b != 5000 {
					t.Fatalf("p=%d root=%d: rank %d got %d bytes", p, root, i, b)
				}
			}
		}
	}
}

func TestReduceAllreduceComplete(t *testing.T) {
	for _, p := range []int{2, 3, 4, 8} {
		var finished int
		mustRun(t, uniCluster(p, netmodel.SCoreGigE()), func(r *Rank) {
			r.Allreduce(85000, 0.1e-3)
			finished++
		})
		if finished != p {
			t.Fatalf("p=%d: only %d ranks finished allreduce", p, finished)
		}
	}
}

func TestAllreduceScalesWithRanks(t *testing.T) {
	// Reduce+bcast over more ranks takes longer (same message size).
	var prev float64
	for _, p := range []int{2, 4, 8} {
		var tEnd float64
		mustRun(t, uniCluster(p, netmodel.TCPGigE()), func(r *Rank) {
			r.Allreduce(85000, 0)
			if r.Now() > tEnd {
				tEnd = r.Now()
			}
		})
		if tEnd <= prev {
			t.Fatalf("allreduce time did not grow with p: %g at p=%d after %g", tEnd, p, prev)
		}
		prev = tEnd
	}
}

func TestGatherAllgatherv(t *testing.T) {
	for _, p := range []int{2, 4, 7} {
		blocks := make([]int, p)
		for i := range blocks {
			blocks[i] = 1000 * (i + 1)
		}
		var done int
		mustRun(t, uniCluster(p, netmodel.SCoreGigE()), func(r *Rank) {
			r.Allgatherv(blocks)
			done++
		})
		if done != p {
			t.Fatalf("p=%d: %d ranks finished allgatherv", p, done)
		}
	}
}

func TestAlltoallvCompletes(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		sizes := make([][]int, p)
		for i := range sizes {
			sizes[i] = make([]int, p)
			for j := range sizes[i] {
				if i != j {
					sizes[i][j] = 10000 + 100*i + j
				}
			}
		}
		var done int
		mustRun(t, uniCluster(p, netmodel.MyrinetGM()), func(r *Rank) {
			r.Alltoallv(sizes)
			done++
		})
		if done != p {
			t.Fatalf("p=%d: %d ranks finished alltoallv", p, done)
		}
	}
}

func TestIsendOverlapsCompute(t *testing.T) {
	// With a non-blocking send the sender can compute during the transfer;
	// total time must be less than send-then-compute serialization.
	net := netmodel.MyrinetGM()
	const bytes = 2 << 20 // 16 ms at 125 MB/s
	const compute = 15e-3
	var overlapped float64
	mustRun(t, uniCluster(2, net), func(r *Rank) {
		if r.ID == 0 {
			req := r.Isend(1, 1, bytes)
			r.Compute(compute)
			r.Wait(req)
			overlapped = r.Now()
		} else {
			r.Recv(0, 1)
		}
	})
	transfer := float64(bytes) / net.Bandwidth
	serial := transfer + compute
	if overlapped >= serial {
		t.Fatalf("isend did not overlap: %g >= %g", overlapped, serial)
	}
}

func TestDualProcessorSharesNIC(t *testing.T) {
	// Two ranks on one node streaming to two ranks on another node share
	// one NIC: slower than two ranks on separate nodes.
	net := netmodel.SCoreGigE()
	const bytes = 4 << 20
	stream := func(cfg cluster.Config) float64 {
		var tEnd float64
		mustRun(t, cfg, func(r *Rank) {
			p := r.Size()
			if r.ID < p/2 {
				r.Send(r.ID+p/2, 1, bytes)
			} else {
				r.Recv(r.ID-p/2, 1)
				if r.Now() > tEnd {
					tEnd = r.Now()
				}
			}
		})
		return tEnd
	}
	dual := stream(cluster.Config{Nodes: 2, CPUsPerNode: 2, Net: net, Seed: 1})
	uni := stream(cluster.Config{Nodes: 4, CPUsPerNode: 1, Net: net, Seed: 1})
	if dual <= uni*1.5 {
		t.Fatalf("dual-CPU NIC sharing not modelled: dual=%g uni=%g", dual, uni)
	}
}

func TestInterruptSerializationOnTCPDual(t *testing.T) {
	// On TCP, receive interrupt processing serializes per node; on Myrinet
	// it does not. Compare many small messages into a dual node.
	many := func(net netmodel.Params) float64 {
		var tEnd float64
		mustRun(t, cluster.Config{Nodes: 2, CPUsPerNode: 2, Net: net, Seed: 1}, func(r *Rank) {
			const n = 200
			switch r.ID {
			case 0, 1: // senders on node 0
				for i := 0; i < n; i++ {
					r.Send(r.ID+2, 1, 1400)
				}
			default: // receivers share node 1
				for i := 0; i < n; i++ {
					r.Recv(r.ID-2, 1)
				}
				if r.Now() > tEnd {
					tEnd = r.Now()
				}
			}
		})
		return tEnd
	}
	tcp := many(netmodel.TCPGigE())
	myri := many(netmodel.MyrinetGM())
	if tcp < myri*2 {
		t.Fatalf("interrupt serialization invisible: tcp=%g myrinet=%g", tcp, myri)
	}
}

func TestTCPStallVariability(t *testing.T) {
	// With ≥4 concurrent flows, TCP transfers must show spread between the
	// fastest and slowest rank; SCore must stay tight (Fig. 7 behaviour).
	spread := func(net netmodel.Params) float64 {
		cfg := uniCluster(8, net)
		sizes := make([][]int, cfg.Nodes)
		for i := range sizes {
			sizes[i] = make([]int, cfg.Nodes)
			for j := range sizes[i] {
				if i != j {
					sizes[i][j] = 60000
				}
			}
		}
		accts := mustRun(t, cfg, func(r *Rank) {
			// All-to-all style traffic for several rounds.
			for round := 0; round < 5; round++ {
				r.Alltoallv(sizes)
			}
		})
		lo, hi := math.Inf(1), 0.0
		for _, a := range accts {
			speed := float64(a.BytesSent) / a.Comm
			lo = math.Min(lo, speed)
			hi = math.Max(hi, speed)
		}
		return (hi - lo) / hi
	}
	tcp := spread(netmodel.TCPGigE())
	score := spread(netmodel.SCoreGigE())
	if tcp < 2*score {
		t.Fatalf("TCP variability %g not clearly above SCore %g", tcp, score)
	}
}

func TestDeterministicAccounting(t *testing.T) {
	run := func() []Accounting {
		return mustRun(t, uniCluster(4, netmodel.TCPGigE()), func(r *Rank) {
			for i := 0; i < 3; i++ {
				r.Allreduce(85000, 0.05e-3)
				r.Barrier()
			}
		})
	}
	a := run()
	b := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d accounting differs between identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestAccountingConservation(t *testing.T) {
	// Comp+Comm+Sync must equal each rank's elapsed virtual time.
	var elapsed []float64
	accts := mustRun(t, uniCluster(4, netmodel.TCPGigE()), func(r *Rank) {
		r.Compute(1e-3)
		r.Allreduce(85000, 0)
		r.Barrier()
		elapsed = append(elapsed, r.Now())
	})
	// elapsed is in completion order, not rank order; compare totals as a
	// multiset via sums.
	var sumA, sumE float64
	for i := range accts {
		sumA += accts[i].Total()
		sumE += elapsed[i]
	}
	if math.Abs(sumA-sumE) > 1e-9 {
		t.Fatalf("accounting leak: booked %g vs elapsed %g", sumA, sumE)
	}
}

func TestRunPropagatesDeadlock(t *testing.T) {
	_, err := Run(uniCluster(2, netmodel.SCoreGigE()), cluster.PentiumIII1GHz(), func(r *Rank) {
		if r.ID == 0 {
			r.Recv(1, 99) // never sent
		}
	})
	if err == nil {
		t.Fatal("deadlock not reported")
	}
}

func TestSelfSendPanics(t *testing.T) {
	_, err := Run(uniCluster(2, netmodel.SCoreGigE()), cluster.PentiumIII1GHz(), func(r *Rank) {
		if r.ID == 0 {
			r.Send(0, 1, 10)
		}
	})
	if err == nil {
		t.Fatal("self send not rejected")
	}
}

// A short row would first be read by a later round, planned inside the
// call on whichever goroutine is dispatching; the shape is checked on the
// caller's goroutine instead.
func TestRaggedMatrixRejectedByCaller(t *testing.T) {
	sizes := [][]int{{0, 8, 8}, {8, 0, 8}, {8}}
	_, err := Run(uniCluster(3, netmodel.SCoreGigE()), cluster.PentiumIII1GHz(), func(r *Rank) {
		r.AlltoallvSparse(sizes)
	})
	if err == nil || !strings.Contains(err.Error(), "p×p") {
		t.Fatalf("ragged size matrix: got %v, want the shape rejected", err)
	}
}

func TestAllreduceRecursiveDoubling(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5, 8} {
		done := 0
		mustRun(t, uniCluster(p, netmodel.SCoreGigE()), func(r *Rank) {
			r.AllreduceRecursiveDoubling(85000, 10e-6)
			done++
		})
		if done != p {
			t.Fatalf("p=%d: %d ranks finished", p, done)
		}
	}
}

func TestModernAllreduceBeatsReduceBcastAtScale(t *testing.T) {
	// Recursive doubling finishes sooner than reduce+bcast for a large
	// vector at p=8 on a high-overhead network.
	worstOf := func(fn func(*Rank)) float64 {
		var worst float64
		mustRun(t, uniCluster(8, netmodel.SCoreGigE()), func(r *Rank) {
			fn(r)
			if r.Now() > worst {
				worst = r.Now()
			}
		})
		return worst
	}
	old := worstOf(func(r *Rank) { r.Allreduce(85000, 0) })
	modern := worstOf(func(r *Rank) { r.AllreduceRecursiveDoubling(85000, 0) })
	if modern >= old {
		t.Fatalf("recursive doubling (%g) not faster than reduce+bcast (%g)", modern, old)
	}
}

func TestAllgathervRing(t *testing.T) {
	for _, p := range []int{2, 4, 7} {
		blocks := make([]int, p)
		for i := range blocks {
			blocks[i] = 5000 + 100*i
		}
		done := 0
		mustRun(t, uniCluster(p, netmodel.MyrinetGM()), func(r *Rank) {
			r.AllgathervRing(blocks)
			done++
		})
		if done != p {
			t.Fatalf("p=%d: %d finished", p, done)
		}
	}
}

func TestRandomTrafficProperty(t *testing.T) {
	// Any sequence of message sizes between two ranks completes, preserves
	// per-tag FIFO order, and conserves bytes.
	f := func(rawSizes []uint16) bool {
		if len(rawSizes) == 0 {
			return true
		}
		if len(rawSizes) > 30 {
			rawSizes = rawSizes[:30]
		}
		sizes := make([]int, len(rawSizes))
		for i, v := range rawSizes {
			sizes[i] = int(v) * 16 // spans eager and rendezvous regimes
		}
		var received []int
		accts, err := Run(uniCluster(2, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), func(r *Rank) {
			if r.ID == 0 {
				for _, sz := range sizes {
					r.Send(1, 9, sz)
				}
			} else {
				for range sizes {
					received = append(received, r.Recv(0, 9))
				}
			}
		})
		if err != nil {
			return false
		}
		var total int64
		for i, sz := range sizes {
			if received[i] != sz {
				return false
			}
			total += int64(sz)
		}
		return accts[0].BytesSent == total && accts[1].BytesRecv == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedTagsProperty(t *testing.T) {
	// Messages on distinct tags can be received in any order relative to
	// each other while each tag stays FIFO.
	var a, b []int
	mustRun(t, uniCluster(2, netmodel.SCoreGigE()), func(r *Rank) {
		if r.ID == 0 {
			for i := 0; i < 5; i++ {
				r.Send(1, 1, 100+i)
				r.Send(1, 2, 200+i)
			}
		} else {
			// Drain tag 2 first, then tag 1: matching must not block.
			for i := 0; i < 5; i++ {
				b = append(b, r.Recv(0, 2))
			}
			for i := 0; i < 5; i++ {
				a = append(a, r.Recv(0, 1))
			}
		}
	})
	for i := 0; i < 5; i++ {
		if a[i] != 100+i || b[i] != 200+i {
			t.Fatalf("per-tag order broken: %v %v", a, b)
		}
	}
}

// allocCeiling is what a message may cost beyond the job's own
// allocations: a transfer and its two callback processes are recycled
// through the world's free list, so only the peak in flight and amortized
// inbox, free-list and event-queue growth allocate.
const allocCeiling = 0.1

// TestSendrecvAllocCeiling holds every point-to-point path to the
// ceiling: an eager and a rendezvous Sendrecv, and the public split API
// (Isend, Recv, Wait) around a ring as cmpi issues it.
func TestSendrecvAllocCeiling(t *testing.T) {
	const ring = 4
	for _, c := range []struct {
		name    string
		p, msgs int // ranks, messages one call posts over all of them
		call    func(r *Rank, i int)
	}{
		{"eager Sendrecv", 2, 2, func(r *Rank, i int) { // both ranks of the pair call it
			r.Sendrecv(1-r.ID, i, 512, 1-r.ID, i)
		}},
		{"rendezvous Sendrecv of 1 MiB", 2, 2, func(r *Rank, i int) {
			r.Sendrecv(1-r.ID, i, 1<<20, 1-r.ID, i)
		}},
		{"Isend/Recv/Wait ring at p=4", ring, ring, func(r *Rank, i int) {
			req := r.Isend((r.ID+1)%ring, i, 512)
			r.Recv((r.ID+ring-1)%ring, i)
			r.Wait(req)
		}},
	} {
		if got := allocsPerMessage(t, c.p, c.msgs, c.call); got > allocCeiling {
			t.Errorf("%s: %.3f allocations per message, ceiling %g", c.name, got, allocCeiling)
		}
	}
}

// TestCollectiveAllocCeiling holds collectives to the same ceiling per
// message posted: a call's plan and step state live in its rank and are
// reused, so a call costs its messages and nothing of its own.
func TestCollectiveAllocCeiling(t *testing.T) {
	const p = 8
	sparse := make([][]int, p)
	for i := range sparse {
		sparse[i] = make([]int, p)
		sparse[i][(i+3)%p] = 512
	}
	for _, c := range []struct {
		name    string
		p, msgs int // ranks, messages one call posts over all of them
		call    func(r *Rank, i int)
	}{
		{"eager Barrier at p=2", 2, 2, func(r *Rank, _ int) { r.Barrier() }},
		{"AlltoallvSparse at p=8", p, p, func(r *Rank, _ int) { r.AlltoallvSparse(sparse) }},
	} {
		if got := allocsPerMessage(t, c.p, c.msgs, c.call); got > allocCeiling {
			t.Errorf("%s: %.3f allocations per message, ceiling %g", c.name, got, allocCeiling)
		}
	}
}

// allocsPerMessage runs call n times on every rank of a p-rank TCP job and
// returns the allocations beyond the job's own per message posted, msgs
// being the messages one round of calls posts.
func allocsPerMessage(t *testing.T, p, msgs int, call func(r *Rank, i int)) float64 {
	t.Helper()
	cfg := uniCluster(p, netmodel.TCPGigE())
	perRun := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			_, err := Run(cfg, cluster.PentiumIII1GHz(), func(r *Rank) {
				for i := 0; i < n; i++ {
					call(r, i)
				}
			})
			if err != nil {
				t.Error(err)
			}
		})
	}
	const n = 500
	return (perRun(n) - perRun(0)) / float64(n*msgs)
}
