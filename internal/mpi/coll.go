package mpi

// Collective operations with the algorithms MPICH 1.2 shipped in the
// paper's era. The data volumes are what matters to the performance model,
// so collectives carry byte counts, not buffers — the MD layer moves the
// actual floats itself and uses these calls to advance virtual time.
// Tags above collTagBase are reserved for collectives.
//
// Each algorithm is a round planner (the *Round methods: round i's
// point-to-point primitives, planned with the add methods); a collective
// awaits its algorithms as the segments of one call.

const (
	collTagBase = 1 << 20
	tagBarrier  = collTagBase + iota
	tagBcast
	tagReduce
	tagGather
	tagAllgather
	tagAlltoall
)

// Barrier synchronizes all ranks (dissemination algorithm, ⌈log2 p⌉ rounds
// of empty messages). All time inside is synchronization.
func (r *Rank) Barrier() {
	if r.Size() == 1 {
		return
	}
	t0 := r.Now()
	prev := r.SyncClass
	r.SyncClass = true
	r.await(segment{rounds: (*Rank).barrierRound})
	r.SyncClass = prev
	r.W.observeColl("barrier", r.Now()-t0)
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

// Bcast distributes bytes from root along a binomial tree. Returns the
// byte count on every rank.
func (r *Rank) Bcast(root, bytes int) int {
	r.await(segment{rounds: (*Rank).bcastRound, root: root, bytes: bytes})
	return bytes
}

// bcastRound is the standard MPICH binomial tree on rotated ranks: a rank
// receives from its parent at its lowest set bit (round 0), then forwards
// to children at the bits below it, highest first.
func (r *Rank) bcastRound(s *segment, i int) bool {
	p := r.Size()
	vrank := (r.ID - s.root + p) % p
	top := 1
	for top < p && vrank&top == 0 {
		top <<= 1
	}
	if i == 0 {
		if top < p {
			r.add(primRecv, (vrank-top+s.root+p)%p, tagBcast, 0)
		}
		return true
	}
	mask := top >> i
	if mask == 0 {
		return false
	}
	if vrank+mask < p {
		r.add(primSend, (vrank+mask+s.root)%p, tagBcast, s.bytes)
	}
	return true
}

// Reduce combines bytes from every rank at root along a binomial tree;
// each hop moves the full payload and costs reduceOp compute on the parent.
// reduceOp is the per-merge CPU time (the caller knows its element count).
func (r *Rank) Reduce(root, bytes int, reduceOp float64) {
	r.await(segment{rounds: (*Rank).reduceRound, root: root, bytes: bytes, reduceOp: reduceOp})
}

// reduceRound receives from the child 2^i away (if it exists) and merges,
// until the round at the rank's lowest set bit sends the partial result
// to its parent.
func (r *Rank) reduceRound(s *segment, i int) bool {
	p, mask := r.Size(), 1<<i
	vrank := (r.ID - s.root + p) % p
	if mask >= p || vrank&(mask-1) != 0 {
		return false
	}
	if vrank&mask != 0 {
		r.add(primSend, ((vrank&^mask)+s.root)%p, tagReduce, s.bytes)
	} else if child := vrank | mask; child < p {
		r.add(primRecv, (child+s.root)%p, tagReduce, 0)
		r.addCompute(s.reduceOp)
	}
	return true
}

// Allreduce is MPICH-1's reduce-to-root plus broadcast — the inefficiency
// the paper's reference platform actually ran.
func (r *Rank) Allreduce(bytes int, reduceOp float64) {
	t0 := r.Now()
	r.await(segment{rounds: (*Rank).reduceRound, bytes: bytes, reduceOp: reduceOp},
		segment{rounds: (*Rank).bcastRound, bytes: bytes})
	r.W.observeColl("allreduce", r.Now()-t0)
}

// Gather collects per-rank blocks at root (linear algorithm: root receives
// p−1 messages in rank order, as early MPICH did).
func (r *Rank) Gather(root int, myBytes int) {
	r.await(segment{rounds: (*Rank).gatherRound, root: root, bytes: myBytes})
}

// gatherRound: the root receives from rank i; every other rank sends its
// block in round 0.
func (r *Rank) gatherRound(s *segment, i int) bool {
	if r.ID != s.root {
		if i > 0 {
			return false
		}
		r.add(primSend, s.root, tagGather, s.bytes)
		return true
	}
	if i >= r.Size() {
		return false
	}
	if i != s.root {
		r.add(primRecv, i, tagGather, 0)
	}
	return true
}

// Allgatherv gathers variable-size blocks to rank 0 and broadcasts the
// concatenation (gather+bcast, the MPICH-1 allgather).
func (r *Rank) Allgatherv(blockBytes []int) {
	p := r.Size()
	if p == 1 {
		return
	}
	if len(blockBytes) != p {
		panic("mpi: Allgatherv needs one block size per rank")
	}
	total := 0
	for _, b := range blockBytes {
		total += b
	}
	t0 := r.Now()
	r.await(segment{rounds: (*Rank).gatherRound, bytes: blockBytes[r.ID]},
		segment{rounds: (*Rank).bcastRound, bytes: total})
	r.W.observeColl("allgatherv", r.Now()-t0)
}

// Alltoallv performs personalized all-to-all exchange: rank i sends
// sizes[i][j] bytes to rank j. Pairwise-exchange schedule (p−1 rounds,
// partner = rank XOR-free rotation), the classic MPICH implementation.
func (r *Rank) Alltoallv(sizes [][]int) {
	if r.Size() == 1 {
		return
	}
	r.checkMatrix(sizes, "Alltoallv")
	t0 := r.Now()
	r.await(segment{rounds: (*Rank).alltoallvRound, sizes: sizes})
	r.W.observeColl("alltoallv", r.Now()-t0)
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

// AlltoallvSparse is Alltoallv for mostly-zero size matrices (halo
// exchanges, atom migration, pencil transposes): it walks the same
// pairwise schedule but posts nothing in a round whose send AND receive
// are both empty, so the event count scales with the number of non-zero
// entries instead of p². The skip decision only reads the globally known
// size matrix, so partners always agree: whenever sizes[i][j] > 0, rank i
// posts the send in the round where rank j posts the matching receive.
func (r *Rank) AlltoallvSparse(sizes [][]int) {
	if r.Size() == 1 {
		return
	}
	r.checkMatrix(sizes, "AlltoallvSparse")
	t0 := r.Now()
	r.await(segment{rounds: (*Rank).alltoallvSparseRound, sizes: sizes})
	r.W.observeColl("alltoallv", r.Now()-t0)
}

// alltoallvSparseRound posts the non-empty halves of alltoallvRound.
func (r *Rank) alltoallvSparseRound(s *segment, i int) bool {
	p, shift := r.Size(), i+1
	if shift >= p {
		return false
	}
	dst, src := (r.ID+shift)%p, (r.ID-shift+p)%p
	sendB, recvB := s.sizes[r.ID][dst], s.sizes[src][r.ID]
	switch {
	case sendB > 0 && recvB > 0:
		r.addSendrecv(dst, tagAlltoall+shift, sendB, src, tagAlltoall+shift)
	case sendB > 0:
		r.add(primIsend, dst, tagAlltoall+shift, sendB)
		r.add(primWait, 0, 0, 0)
	case recvB > 0:
		r.add(primRecv, src, tagAlltoall+shift, 0)
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
