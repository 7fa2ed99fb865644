package mpi

// The CHARMM-MPI (CMPI) middleware the paper analyzes in §4.2: a
// portability layer over MPI that uses split non-blocking send/receive
// calls for data movement and implements every global synchronization as
// p−1 rounds of one-byte exchanges with the nearest neighbours. On
// networks with per-packet and per-message overheads (TCP/IP on Ethernet)
// this synchronization style destroys scalability — exactly the effect of
// the paper's Fig. 8.
//
// The collectives follow the philosophy the paper attributes to portable
// middleware: simple rings and floods built on the split primitives with
// synchronization fences around them, rather than the tuned trees of the
// underlying MPI library. Each is one call of round planners.

import "repro/internal/trace"

const (
	tagSync  = 1 << 18
	tagRing  = tagSync + 1024
	tagFlood = tagRing + 768
)

// syncSeg is one Sync. A fence is two: CMPI keeps its internal state
// machines coherent across nodes.
var syncSeg = segment{rounds: (*Rank).syncRound, sync: true}

// CMPI is a rank seen through the CMPI middleware.
type CMPI struct{ r *Rank }

// CMPI returns the rank's CMPI layer.
func (r *Rank) CMPI() CMPI { return CMPI{r} }

// fenced runs op between two fences as the collective c.
func (m CMPI) fenced(c trace.Call, op segment) {
	m.r.collective(c, syncSeg, syncSeg, op, syncSeg, syncSeg)
}

// Barrier is CMPI's Sync.
func (m CMPI) Barrier() {
	m.r.collective(trace.Call{Kind: "barrier"}, syncSeg)
}

// syncRound is round i of a Sync, the CMPI synchronization primitive: p−1
// rounds of one-byte exchanges with both nearest neighbours on the rank
// ring, all of it booked as synchronization, the paper's classification.
// The Sync's metrics are booked when its last round is done.
func (r *Rank) syncRound(s *segment, i int) bool {
	p := r.Size()
	if i == 0 {
		s.t0 = r.Now()
	}
	if i == p-1 {
		if reg := r.Metrics(); reg != nil {
			reg.Counter("repro_cmpi_syncs_total", "CMPI neighbour-exchange synchronizations completed").Inc()
			reg.Counter("repro_cmpi_sync_seconds_total", "virtual seconds spent inside CMPI Sync").Add(r.Now() - s.t0)
		}
		return false
	}
	left, right := (r.ID-1+p)%p, (r.ID+1)%p
	r.add(primIsend, right, tagSync+i, 1)
	r.add(primIsend, left, tagSync+i, 1)
	r.add(primRecv, left, tagSync+i, 0)
	r.add(primRecv, right, tagSync+i, 0)
	r.add(primWait, 0, 0, 0)
	r.add(primWait, 0, 0, 0)
	return true
}

// Allreduce is CMPI's global sum: a ring pass where each rank forwards the
// full buffer p−1 times, merging at each hop (volume (p−1)·bytes per rank,
// the unsegmented portable ring).
func (m CMPI) Allreduce(bytes int, reduceOp float64) {
	m.fenced(trace.Call{Kind: "allreduce", Bytes: bytes},
		segment{rounds: (*Rank).ringReduceRound, bytes: bytes, reduceOp: reduceOp})
}

// ringReduceRound sends the buffer right, takes one from the left and
// merges it before waiting for its own send.
func (r *Rank) ringReduceRound(s *segment, i int) bool {
	p := r.Size()
	if i >= p-1 {
		return false
	}
	r.add(primIsend, (r.ID+1)%p, tagRing+i, s.bytes)
	r.add(primRecv, (r.ID-1+p)%p, tagRing+i, 0)
	r.addCompute(s.reduceOp)
	r.add(primWait, 0, 0, 0)
	return true
}

// Allgatherv circulates the variable-size blocks around the ring (p−1
// rounds; round k moves the block originally owned by (id−k) onward). The
// ring is MPI's AllgathervRing.
func (m CMPI) Allgatherv(blocks []int) {
	if len(blocks) != m.r.Size() {
		panic("mpi: CMPI Allgatherv needs one block size per rank")
	}
	m.fenced(trace.Call{Kind: "allgatherv", Blocks: blocks}, segment{rounds: (*Rank).ringRound, blocks: blocks})
}

// Alltoallv posts split sends to every partner at once and then drains the
// matching receives — the unscheduled flood that loses the "firm grip on
// the communication system" the paper describes.
func (m CMPI) Alltoallv(sizes [][]int) {
	m.r.checkMatrix(sizes, "CMPI Alltoallv")
	m.fenced(trace.Call{Kind: "alltoallv", Sizes: sizes}, segment{rounds: (*Rank).floodRound, sizes: sizes})
}

// AlltoallvSparse is Alltoallv for a sparse size matrix: the flood posts
// sends only to the partners the rank's entries of sizes address and
// drains only the sources that address it (the matrix is global knowledge, so both
// sides agree), so its host work scales with the rank's partners, not with
// p. The fences still bracket the exchange — CMPI never loosens its grip on
// the communication system.
func (m CMPI) AlltoallvSparse(sizes *Sparse) {
	m.fenced(sizes.call(), segment{rounds: (*Rank).sparseFloodRound, row: sizes.rowOf(m.r), flip: sizes.t})
}

// floodRound plans one primitive a round: the isends to the ranks 1 … p−1
// ahead, then the receives from the ranks 1 … p−1 behind, then a wait for
// each isend in posting order.
func (r *Rank) floodRound(s *segment, i int) bool {
	p := r.Size()
	off := i%(p-1) + 1
	switch i / (p - 1) {
	case 0:
		dst := (r.ID + off) % p
		r.add(primIsend, dst, tagFlood+r.ID, s.sizes[r.ID][dst])
	case 1:
		src := (r.ID - off + p) % p
		r.add(primRecv, src, tagFlood+src, 0)
	default:
		return r.floodWait()
	}
	return true
}

// sparseFloodRound is floodRound over the rank's entries: the isends in
// ascending shift where it sends, then the receives in ascending shift
// where it receives, then the waits. A round without a primitive plans
// nothing.
func (r *Rank) sparseFloodRound(s *segment, i int) bool {
	p, n := r.Size(), len(s.row)
	switch {
	case i < n:
		if shift, send, _ := partner(s.row, s.flip, p, i); send > 0 {
			r.add(primIsend, (r.ID+shift)%p, tagFlood+r.ID, send)
		}
	case i < 2*n:
		if shift, _, recv := partner(s.row, s.flip, p, i-n); recv > 0 {
			src := (r.ID - shift + p) % p
			r.add(primRecv, src, tagFlood+src, 0)
		}
	default:
		return r.floodWait()
	}
	return true
}

// floodWait plans a wait for the oldest isend of a flood, if one is left.
func (r *Rank) floodWait() bool {
	if len(r.call.reqs) == 0 {
		return false
	}
	r.add(primWait, 0, 0, 0)
	return true
}
