package mpi

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
)

// TestLateWaitReturnsItsOwnBytes waits on an isend only after its message
// was received and many later messages have recycled transfers: the wait
// still holds its transfer, so it must read its own size.
func TestLateWaitReturnsItsOwnBytes(t *testing.T) {
	const later = 20
	eager := netmodel.TCPGigE().EagerLimit
	got := -1
	mustRun(t, uniCluster(2, netmodel.TCPGigE()), func(r *Rank) {
		if r.ID == 1 {
			r.Recv(0, 0)
			for i := 1; i <= later; i++ {
				sendrecv(r, 0, i, eager/2+i, 0, i)
			}
			return
		}
		req := r.Isend(1, 0, 777)
		for i := 1; i <= later; i++ {
			sendrecv(r, 1, i, eager+i, 1, i) // rendezvous one way, eager back
		}
		got = r.Wait(req)
	})
	if got != 777 {
		t.Fatalf("late Wait returned %d bytes, want 777", got)
	}
}

// TestAbandonedTransferIsNotRecycled leaves two rendezvous messages
// nobody receives, one from an isend whose helper's watchdog runs out and
// one from a blocking send that times out. Neither transfer may reach the
// free list, which earlier messages have filled.
func TestAbandonedTransferIsNotRecycled(t *testing.T) {
	big := netmodel.TCPGigE().EagerLimit + 1
	wd := Options{Watchdog: Watchdog{Timeout: 0.05, Retries: 1, Backoff: 2}}
	for _, c := range []struct {
		name    string
		holders int // claims the abandoned transfer keeps
		send    func(r *Rank)
	}{
		{"abandoned isend", 2, func(r *Rank) {
			req := r.Isend(1, 99, big)
			r.Compute(0.01) // the helper's budget runs out before the waiter's
			r.Wait(req)
		}},
		{"timed-out send", 1, func(r *Rank) { send(r, 1, 99, big) }},
	} {
		var w *World
		_, err := RunOpts(uniCluster(2, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), wd, func(r *Rank) {
			w = r.W
			for i := 0; i < 4; i++ {
				sendrecv(r, 1-r.ID, i, 512, 1-r.ID, i)
			}
			if r.ID == 0 {
				c.send(r)
			}
		})
		var te *TimeoutError
		if !errors.As(err, &te) || te.Op != "send-rendezvous" {
			t.Fatalf("%s: want a send-rendezvous timeout, got %v", c.name, err)
		}
		if len(w.free) == 0 {
			t.Fatalf("%s: the earlier messages left nothing on the free list", c.name)
		}
		lost := w.ranks[1].inbox
		if len(lost) != 1 || lost[0].tag != 99 {
			t.Fatalf("%s: rank 1's inbox holds %d messages, want the one abandoned", c.name, len(lost))
		}
		x := lost[0].xfer
		if x.holders != c.holders {
			t.Errorf("%s: abandoned transfer has %d holders, want %d", c.name, x.holders, c.holders)
		}
		for _, f := range w.free {
			if f == x {
				t.Errorf("%s: the abandoned transfer is on the free list", c.name)
			}
		}
	}
}

// TestFreeListBoundedByMessagesInFlight counts the messages in flight —
// isent and not yet both received and waited on — at every point a rank
// runs, on skewed ranks mixing eager and rendezvous sizes. The transfers
// a run allocates must equal its peak in flight, and the free list must
// hold exactly the allocated ones not in flight.
func TestFreeListBoundedByMessagesInFlight(t *testing.T) {
	const p, rounds = 4, 30
	eager := netmodel.TCPGigE().EagerLimit
	type key struct{ src, dst, tag int }
	ends := map[key]int{} // a message's holders that have finished with it
	allocated := map[*Request]bool{}
	inFlight, peak := 0, 0
	var w *World
	check := func(where string) {
		if len(w.free)+inFlight != len(allocated) {
			t.Fatalf("%s: %d free + %d in flight, but %d transfers allocated", where, len(w.free), inFlight, len(allocated))
		}
	}
	finished := func(k key) {
		if ends[k]++; ends[k] == 2 {
			inFlight--
		}
	}
	mustRun(t, uniCluster(p, netmodel.TCPGigE()), func(r *Rank) {
		w = r.W
		for round := 0; round < rounds; round++ {
			var reqs [2]*Request
			for j, off := range []int{1, 2} {
				bytes := 512
				if (round+r.ID+j)%3 == 0 {
					bytes = eager + 1
				}
				reqs[j] = r.Isend((r.ID+off)%p, round, bytes)
				allocated[reqs[j]] = true
				inFlight++
				peak = max(peak, inFlight)
				check("isend")
			}
			r.Compute(1e-4 * float64((r.ID*7+round)%5))
			for _, off := range []int{1, 2} {
				src := (r.ID - off + p) % p
				r.Recv(src, round)
				finished(key{src, r.ID, round})
				check("recv")
			}
			for j, off := range []int{1, 2} {
				r.Wait(reqs[j])
				finished(key{r.ID, (r.ID + off) % p, round})
				check("wait")
			}
		}
	})
	if inFlight != 0 || len(allocated) != peak || len(w.free) != peak {
		t.Fatalf("%d in flight after the run, %d transfers allocated and %d free; want 0 and the peak in flight, %d",
			inFlight, len(allocated), len(w.free), peak)
	}
}

// TestIsendDeliversOnItsOwnProcess: an isend's helper process steps on
// into its message's delivery leg, eager and rendezvous alike, so its
// transfer never starts the delivery process of its own that a blocking
// send's transfer does, the rank's process having moved on.
func TestIsendDeliversOnItsOwnProcess(t *testing.T) {
	eager := netmodel.TCPGigE().EagerLimit
	for _, c := range []struct {
		name     string
		dlvProcs bool // the transfer started its dlvP
		send     func(r *Rank, bytes int)
	}{
		{"isend", false, func(r *Rank, bytes int) { r.Wait(r.Isend(1, 0, bytes)) }},
		{"blocking send", true, func(r *Rank, bytes int) { send(r, 1, 0, bytes) }},
	} {
		for _, bytes := range []int{eager / 2, eager + 1} {
			var w *World
			mustRun(t, uniCluster(2, netmodel.TCPGigE()), func(r *Rank) {
				w = r.W
				if r.ID == 0 {
					c.send(r, bytes)
				} else {
					r.Recv(0, 0)
				}
			})
			if len(w.free) != 1 {
				t.Fatalf("%s of %d B: %d transfers on the free list, want the one", c.name, bytes, len(w.free))
			}
			x := w.free[0]
			if started := x.dlvP.Done(); started != c.dlvProcs {
				t.Errorf("%s of %d B: separate delivery process started %v, want %v", c.name, bytes, started, c.dlvProcs)
			}
			if !c.dlvProcs && !x.sendP.Done() {
				t.Errorf("%s of %d B: the helper process did not finish", c.name, bytes)
			}
		}
	}
}

// TestEagerIsendDepositsOnTheRanksStep: an eager isend's envelope is in
// the receiver's inbox when the isend returns, before its helper process
// has run; a rendezvous envelope waits for the helper, which parks on the
// handshake.
func TestEagerIsendDepositsOnTheRanksStep(t *testing.T) {
	eager := netmodel.TCPGigE().EagerLimit
	for _, c := range []struct {
		bytes int
		want  bool
	}{{eager, true}, {eager + 1, false}} {
		var deposited bool
		mustRun(t, uniCluster(2, netmodel.TCPGigE()), func(r *Rank) {
			if r.ID == 1 {
				r.Recv(0, 7)
				return
			}
			req := r.Isend(1, 7, c.bytes)
			inbox := r.W.ranks[1].inbox
			deposited = len(inbox) == 1 && inbox[0].tag == 7
			r.Wait(req)
		})
		if deposited != c.want {
			t.Errorf("isend of %d B: envelope in the inbox on return %v, want %v", c.bytes, deposited, c.want)
		}
	}
}
