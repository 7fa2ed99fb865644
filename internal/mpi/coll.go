package mpi

// Collective operations with the algorithms MPICH 1.2 shipped in the
// paper's era. The data volumes are what matters to the performance model,
// so collectives carry byte counts, not buffers — the MD layer moves the
// actual floats itself and uses these calls to advance virtual time.
// Tags above collTagBase are reserved for collectives.

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
	p := r.Size()
	if p == 1 {
		return
	}
	t0 := r.Now()
	prev := r.SyncClass
	r.SyncClass = true
	for dist := 1; dist < p; dist *= 2 {
		dst := (r.ID + dist) % p
		src := (r.ID - dist + p) % p
		r.Sendrecv(dst, tagBarrier+dist, 0, src, tagBarrier+dist)
	}
	r.SyncClass = prev
	r.W.observeColl("barrier", r.Now()-t0)
}

// Bcast distributes bytes from root along a binomial tree. Returns the
// byte count on every rank.
func (r *Rank) Bcast(root, bytes int) int {
	p := r.Size()
	if p == 1 {
		return bytes
	}
	// Standard MPICH binomial tree on rotated ranks: a rank receives from
	// its parent at its lowest set bit, then forwards to children at the
	// bits below it, highest first.
	vrank := (r.ID - root + p) % p
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			src := (vrank - mask + root + p) % p
			r.Recv(src, tagBcast)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vrank+mask < p {
			dst := (vrank + mask + root) % p
			r.Send(dst, tagBcast, bytes)
		}
		mask >>= 1
	}
	return bytes
}

// Reduce combines bytes from every rank at root along a binomial tree;
// each hop moves the full payload and costs reduceOp compute on the parent.
// reduceOp is the per-merge CPU time (the caller knows its element count).
func (r *Rank) Reduce(root, bytes int, reduceOp float64) {
	p := r.Size()
	if p == 1 {
		return
	}
	vrank := (r.ID - root + p) % p
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			// Send partial result to parent and stop.
			parent := ((vrank &^ mask) + root) % p
			r.Send(parent, tagReduce, bytes)
			return
		}
		// Receive from child (if it exists) and merge.
		child := vrank | mask
		if child < p {
			r.Recv((child+root)%p, tagReduce)
			if reduceOp > 0 {
				r.Compute(reduceOp)
			}
		}
		mask <<= 1
	}
}

// Allreduce is MPICH-1's reduce-to-root plus broadcast — the inefficiency
// the paper's reference platform actually ran.
func (r *Rank) Allreduce(bytes int, reduceOp float64) {
	t0 := r.Now()
	r.Reduce(0, bytes, reduceOp)
	r.Bcast(0, bytes)
	r.W.observeColl("allreduce", r.Now()-t0)
}

// Gather collects per-rank blocks at root (linear algorithm: root receives
// p−1 messages in rank order, as early MPICH did).
func (r *Rank) Gather(root int, myBytes int, allBytes []int) {
	p := r.Size()
	if p == 1 {
		return
	}
	if r.ID == root {
		for src := 0; src < p; src++ {
			if src == root {
				continue
			}
			r.Recv(src, tagGather)
		}
	} else {
		r.Send(root, tagGather, myBytes)
	}
	_ = allBytes
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
	r.Gather(0, blockBytes[r.ID], blockBytes)
	r.Bcast(0, total)
	r.W.observeColl("allgatherv", r.Now()-t0)
}

// Alltoallv performs personalized all-to-all exchange: rank i sends
// sizes[i][j] bytes to rank j. Pairwise-exchange schedule (p−1 rounds,
// partner = rank XOR-free rotation), the classic MPICH implementation.
func (r *Rank) Alltoallv(sizes [][]int) {
	p := r.Size()
	if p == 1 {
		return
	}
	if len(sizes) != p {
		panic("mpi: Alltoallv needs a p×p size matrix")
	}
	t0 := r.Now()
	for shift := 1; shift < p; shift++ {
		dst := (r.ID + shift) % p
		src := (r.ID - shift + p) % p
		r.Sendrecv(dst, tagAlltoall+shift, sizes[r.ID][dst], src, tagAlltoall+shift)
	}
	r.W.observeColl("alltoallv", r.Now()-t0)
}

// AlltoallvSparse is Alltoallv for mostly-zero size matrices (halo
// exchanges, atom migration, pencil transposes): it walks the same
// pairwise schedule but posts nothing in a round whose send AND receive
// are both empty, so the event count scales with the number of non-zero
// entries instead of p². The skip decision only reads the globally known
// size matrix, so partners always agree: whenever sizes[i][j] > 0, rank i
// posts the send in the round where rank j posts the matching receive.
func (r *Rank) AlltoallvSparse(sizes [][]int) {
	p := r.Size()
	if p == 1 {
		return
	}
	if len(sizes) != p {
		panic("mpi: AlltoallvSparse needs a p×p size matrix")
	}
	t0 := r.Now()
	for shift := 1; shift < p; shift++ {
		dst := (r.ID + shift) % p
		src := (r.ID - shift + p) % p
		sendB := sizes[r.ID][dst]
		recvB := sizes[src][r.ID]
		switch {
		case sendB > 0 && recvB > 0:
			r.Sendrecv(dst, tagAlltoall+shift, sendB, src, tagAlltoall+shift)
		case sendB > 0:
			sreq := r.Isend(dst, tagAlltoall+shift, sendB)
			r.Wait(sreq)
		case recvB > 0:
			r.Recv(src, tagAlltoall+shift)
		}
	}
	r.W.observeColl("alltoallv", r.Now()-t0)
}
