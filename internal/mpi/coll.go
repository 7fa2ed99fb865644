package mpi

import (
	"strings"

	"repro/internal/trace"
)

// Collective operations with the algorithms MPICH 1.2 shipped in the
// paper's era. The data volumes are what matters to the performance model,
// so collectives carry byte counts, not buffers — the MD layer moves the
// actual floats itself and uses these calls to advance virtual time.
// Tags above collTagBase are reserved for collectives.
//
// Each algorithm is a round planner (the *Round methods: round i's
// point-to-point primitives, planned with the add methods); a collective
// awaits its algorithms as the segments of one call, through collective.

const (
	collTagBase = 1 << 20
	tagBarrier  = collTagBase + iota
	tagBcast
	tagReduce
	tagGather
	tagAllgather
	tagAlltoall
)

// collective runs one call of a collective on the rank. Rank 0 reports c
// to the world's observer, once for all ranks; the segments run when the
// world has more than one rank; and every rank books its latency through
// the call into the collective histogram. Every public collective of the
// three middlewares enters here, so the log and the histograms count the
// same calls.
func (r *Rank) collective(c trace.Call, segs ...segment) {
	w := r.W
	if w.Observer != nil && r.ID == 0 {
		c.Ranks = r.Size()
		w.Observer.Collective(c)
	}
	t0 := r.Now()
	if r.Size() > 1 {
		r.await(segs...)
	}
	if w.mColl != nil {
		w.mColl[strings.TrimSuffix(c.Kind, "_sparse")].Observe(r.Now() - t0)
	}
}

// Barrier synchronizes all ranks (dissemination algorithm, ⌈log2 p⌉ rounds
// of empty messages). All time inside is synchronization.
func (r *Rank) Barrier() {
	r.collective(trace.Call{Kind: "barrier"}, segment{rounds: (*Rank).barrierRound, sync: true})
}

// barrierRound exchanges with the ranks 2^i away on either side.
func (r *Rank) barrierRound(_ *segment, i int) bool {
	p, dist := r.Size(), 1<<i
	if dist >= p {
		return false
	}
	r.addSendrecv((r.ID+dist)%p, tagBarrier+dist, 0, (r.ID-dist+p)%p, tagBarrier+dist)
	return true
}

// bcastRound is the standard MPICH binomial tree rooted at rank 0: a rank
// receives from its parent at its lowest set bit (round 0), then forwards
// to children at the bits below it, highest first.
func (r *Rank) bcastRound(s *segment, i int) bool {
	p, me := r.Size(), r.ID
	top := 1
	for top < p && me&top == 0 {
		top <<= 1
	}
	if i == 0 {
		if top < p {
			r.add(primRecv, me-top, tagBcast, 0)
		}
		return true
	}
	mask := top >> i
	if mask == 0 {
		return false
	}
	if me+mask < p {
		r.add(primSend, me+mask, tagBcast, s.bytes)
	}
	return true
}

// reduceRound combines the payload at rank 0 along a binomial tree: it
// receives from the child 2^i away (if it exists) and merges for reduceOp
// seconds, until the round at the rank's lowest set bit sends the partial
// result to its parent. Each hop moves the full payload.
func (r *Rank) reduceRound(s *segment, i int) bool {
	p, me, mask := r.Size(), r.ID, 1<<i
	if mask >= p || me&(mask-1) != 0 {
		return false
	}
	if me&mask != 0 {
		r.add(primSend, me&^mask, tagReduce, s.bytes)
	} else if child := me | mask; child < p {
		r.add(primRecv, child, tagReduce, 0)
		r.addCompute(s.reduceOp)
	}
	return true
}

// Allreduce is MPICH-1's reduce-to-root plus broadcast — the inefficiency
// the paper's reference platform actually ran.
func (r *Rank) Allreduce(bytes int, reduceOp float64) {
	r.collective(trace.Call{Kind: "allreduce", Bytes: bytes},
		segment{rounds: (*Rank).reduceRound, bytes: bytes, reduceOp: reduceOp},
		segment{rounds: (*Rank).bcastRound, bytes: bytes})
}

// gatherRound collects per-rank blocks at rank 0 (linear algorithm, as
// early MPICH did): every other rank sends its block in round 0, and rank
// 0 receives from rank i in round i, in rank order.
func (r *Rank) gatherRound(s *segment, i int) bool {
	if r.ID != 0 {
		if i > 0 {
			return false
		}
		r.add(primSend, 0, tagGather, s.bytes)
		return true
	}
	if i >= r.Size() {
		return false
	}
	if i != 0 {
		r.add(primRecv, i, tagGather, 0)
	}
	return true
}

// Allgatherv gathers variable-size blocks to rank 0 and broadcasts the
// concatenation (gather+bcast, the MPICH-1 allgather).
func (r *Rank) Allgatherv(blockBytes []int) {
	if len(blockBytes) != r.Size() {
		panic("mpi: Allgatherv needs one block size per rank")
	}
	total := 0
	for _, b := range blockBytes {
		total += b
	}
	r.collective(trace.Call{Kind: "allgatherv", Blocks: blockBytes},
		segment{rounds: (*Rank).gatherRound, bytes: blockBytes[r.ID]},
		segment{rounds: (*Rank).bcastRound, bytes: total})
}

// Alltoallv performs personalized all-to-all exchange: rank i sends
// sizes[i][j] bytes to rank j. Pairwise-exchange schedule (p−1 rounds,
// partner = rank XOR-free rotation), the classic MPICH implementation.
func (r *Rank) Alltoallv(sizes [][]int) {
	r.checkMatrix(sizes, "Alltoallv")
	r.collective(trace.Call{Kind: "alltoallv", Sizes: sizes},
		segment{rounds: (*Rank).alltoallvRound, sizes: sizes})
}

// alltoallvRound exchanges with the ranks i+1 away on either side.
func (r *Rank) alltoallvRound(s *segment, i int) bool {
	p, shift := r.Size(), i+1
	if shift >= p {
		return false
	}
	dst, src := (r.ID+shift)%p, (r.ID-shift+p)%p
	r.addSendrecv(dst, tagAlltoall+shift, s.sizes[r.ID][dst], src, tagAlltoall+shift)
	return true
}

// AlltoallvPartners is Alltoallv for a sparse size matrix (halo
// exchanges, atom migration, pencil transposes): it walks the pairwise
// schedule's rounds in ascending shift, but only the rounds where the rank
// sends or receives, one per entry of its row of m. The tag of a round is
// its shift, so every post is the one the full p−1-round walk would make
// and partners always agree: whenever rank i sends rank j bytes, i posts
// the send in the round where j posts the matching receive. Both the
// events and the host work of a call scale with the rank's partners, not
// with p, and m's shape was checked when it was built.
func (r *Rank) AlltoallvPartners(m *Sparse) {
	r.collective(m.call(), segment{rounds: (*Rank).alltoallvSparseRound, row: m.rowOf(r), flip: m.t})
}

// AlltoallvSparse is AlltoallvPartners over a dense size matrix: it fills
// the rank's entries into a buffer the rank reuses across calls, one walk
// over its row and column, and runs the same rounds. Its one caller is the
// benchmark's collective skeleton; ROADMAP item 10 deletes it.
func (r *Rank) AlltoallvSparse(sizes [][]int) {
	r.checkMatrix(sizes, "AlltoallvSparse")
	r.partners = fillPartners(r.partners, sizes, r.ID)
	r.collective(trace.Call{Kind: "alltoallv_sparse", Sizes: sizes},
		segment{rounds: (*Rank).alltoallvSparseRound, row: r.partners})
}

// alltoallvSparseRound posts the non-empty halves of alltoallvRound at the
// shift of the rank's entry i.
func (r *Rank) alltoallvSparseRound(s *segment, i int) bool {
	if i >= len(s.row) {
		return false
	}
	p := r.Size()
	shift, sendB, recvB := partner(s.row, s.flip, p, i)
	dst, src, tag := (r.ID+shift)%p, (r.ID-shift+p)%p, tagAlltoall+shift
	switch {
	case sendB > 0 && recvB > 0:
		r.addSendrecv(dst, tag, sendB, src, tag)
	case sendB > 0:
		r.add(primIsend, dst, tag, sendB)
		r.add(primWait, 0, 0, 0)
	default:
		r.add(primRecv, src, tag, 0)
	}
	return true
}

// checkMatrix panics, on the rank's own goroutine, unless sizes is p×p:
// the rounds read it inside the call.
func (r *Rank) checkMatrix(sizes [][]int, op string) {
	ok := len(sizes) == r.Size()
	for _, row := range sizes {
		ok = ok && len(row) == r.Size()
	}
	if !ok {
		panic("mpi: " + op + " needs a p×p size matrix")
	}
}
