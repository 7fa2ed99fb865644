package mpi

import (
	"math/bits"

	"repro/internal/trace"
)

// Modern collective algorithms (Thakur/Rabenseifner era, post-2004) used by
// the ablation study: they answer "how much of the paper's scalability
// problem was the MPICH-1 algorithms rather than the network?".

const tagModern = collTagBase + 4096

// AllreduceRecursiveDoubling performs the full-vector recursive-doubling
// allreduce: ⌈log2 p⌉ bidirectional exchanges of the whole payload, with a
// pre/post fold for non-power-of-two sizes.
func (r *Rank) AllreduceRecursiveDoubling(bytes int, reduceOp float64) {
	r.collective(trace.Call{Kind: "allreduce", Bytes: bytes},
		segment{rounds: (*Rank).recursiveDoublingRound, bytes: bytes, reduceOp: reduceOp})
}

// recursiveDoublingRound: round 0 folds the remainder — ranks ≥ pow2 send
// their contribution to their partner below and drop out of the core
// exchange; the ranks below pow2 then exchange with the rank 2^(i−1) away
// in rounds 1 … log2 pow2; the round after the core unfolds, the partners
// returning the final vector.
func (r *Rank) recursiveDoublingRound(s *segment, i int) bool {
	p := r.Size()
	pow2 := 1 << (bits.Len(uint(p)) - 1)
	rem := p - pow2
	core := 0
	if r.ID < pow2 {
		core = bits.Len(uint(pow2)) - 1
	}
	switch {
	case i == 0:
		if r.ID >= pow2 {
			r.add(primSend, r.ID-pow2, tagModern, s.bytes)
		} else if r.ID < rem {
			r.add(primRecv, r.ID+pow2, tagModern, 0)
			r.addCompute(s.reduceOp)
		}
	case i <= core:
		mask := 1 << (i - 1)
		partner := r.ID ^ mask
		r.addSendrecv(partner, tagModern+mask, s.bytes, partner, tagModern+mask)
		r.addCompute(s.reduceOp)
	case i == core+1:
		if r.ID >= pow2 {
			r.add(primRecv, r.ID-pow2, tagModern+1<<20, 0)
		} else if r.ID < rem {
			r.add(primSend, r.ID+pow2, tagModern+1<<20, s.bytes)
		}
	default:
		return false
	}
	return true
}

// AllgathervRing circulates the blocks around the rank ring (p−1 rounds),
// the bandwidth-optimal large-message allgather.
func (r *Rank) AllgathervRing(blockBytes []int) {
	if len(blockBytes) != r.Size() {
		panic("mpi: AllgathervRing needs one block size per rank")
	}
	r.collective(trace.Call{Kind: "allgatherv", Blocks: blockBytes},
		segment{rounds: (*Rank).ringRound, blocks: blockBytes})
}

// ringRound passes block ID−i to the right and takes one from the left.
func (r *Rank) ringRound(s *segment, i int) bool {
	p := r.Size()
	if i >= p-1 {
		return false
	}
	left, right := (r.ID-1+p)%p, (r.ID+1)%p
	r.addSendrecv(right, tagModern+2048+i, s.blocks[(r.ID-i+p)%p], left, tagModern+2048+i)
	return true
}
