// Package cmpi models the CHARMM-MPI (CMPI) communication middleware the
// paper analyzes in §4.2: a portability layer over MPI that uses split
// non-blocking send/receive calls for data movement and implements every
// global synchronization as repeated exchanges of one-byte messages among
// nearest neighbours, repeated p−1 times. On networks with per-packet and
// per-message overheads (TCP/IP on Ethernet) this synchronization style
// destroys scalability — exactly the effect of the paper's Fig. 8.
//
// The collectives here follow the same philosophy the paper attributes to
// portable middleware: simple ring algorithms built on the split primitives
// with explicit synchronization fences, rather than the tuned trees of the
// underlying MPI library.
package cmpi

import "repro/internal/mpi"

const (
	tagSync = 1 << 18
	tagRing = tagSync + 1024
)

// Middleware wraps a rank with CMPI-style operations.
type Middleware struct {
	R *mpi.Rank
	// FencesPerOp is how many synchronization fences wrap each collective
	// (CMPI fences before and after by default to keep its internal state
	// machines coherent across nodes).
	FencesPerOp int
}

// New returns a CMPI layer over r with the default double fence.
func New(r *mpi.Rank) *Middleware {
	return &Middleware{R: r, FencesPerOp: 2}
}

// Sync is the CMPI synchronization primitive: p−1 rounds of one-byte
// exchanges with both nearest neighbours on the rank ring. All of its time
// is booked as synchronization, matching the paper's classification.
func (m *Middleware) Sync() {
	r := m.R
	p := r.Size()
	if p == 1 {
		return
	}
	t0 := r.Now()
	prev := r.SyncClass
	r.SyncClass = true
	defer func() { r.SyncClass = prev }()
	left := (r.ID - 1 + p) % p
	right := (r.ID + 1) % p
	for round := 0; round < p-1; round++ {
		tag := tagSync + round
		sr := r.Isend(right, tag, 1)
		sl := r.Isend(left, tag, 1)
		r.Recv(left, tag)
		r.Recv(right, tag)
		r.Wait(sr)
		r.Wait(sl)
	}
	if reg := r.Metrics(); reg != nil {
		reg.Counter("repro_cmpi_syncs_total", "CMPI neighbour-exchange synchronizations completed").Inc()
		reg.Counter("repro_cmpi_sync_seconds_total", "virtual seconds spent inside CMPI Sync").Add(r.Now() - t0)
	}
}

// fence runs the configured number of Sync calls.
func (m *Middleware) fence() {
	for i := 0; i < m.FencesPerOp; i++ {
		m.Sync()
	}
}

// Allreduce is CMPI's global sum: a synchronization fence, then a ring pass
// where each rank forwards the full buffer p−1 times, combining at each
// hop (volume (p−1)·bytes per rank — the unsegmented portable ring).
func (m *Middleware) Allreduce(bytes int, reduceOp float64) {
	r := m.R
	p := r.Size()
	if p == 1 {
		return
	}
	m.fence()
	left := (r.ID - 1 + p) % p
	right := (r.ID + 1) % p
	for round := 0; round < p-1; round++ {
		tag := tagRing + round
		sreq := r.Isend(right, tag, bytes)
		r.Recv(left, tag)
		if reduceOp > 0 {
			r.Compute(reduceOp)
		}
		r.Wait(sreq)
	}
	m.fence()
}

// Allgatherv circulates the variable-size blocks around the ring (p−1
// rounds; round k moves the block originally owned by (id−k) onward)
// between two fences. The ring is MPI's: the same split isend, receive
// and wait per round. One rank has nothing to fence or circulate.
func (m *Middleware) Allgatherv(blocks []int) {
	m.fence()
	m.R.AllgathervRing(blocks)
	m.fence()
}

// Alltoallv posts split sends to every partner at once and then drains the
// matching receives — the unscheduled flood that loses the "firm grip on
// the communication system" the paper describes.
func (m *Middleware) Alltoallv(sizes [][]int) {
	r := m.R
	p := r.Size()
	if p == 1 {
		return
	}
	if len(sizes) != p {
		panic("cmpi: Alltoallv needs a p×p matrix")
	}
	m.fence()
	reqs := make([]*mpi.Request, 0, p-1)
	for off := 1; off < p; off++ {
		dst := (r.ID + off) % p
		reqs = append(reqs, r.Isend(dst, tagRing+768+r.ID, sizes[r.ID][dst]))
	}
	for off := 1; off < p; off++ {
		src := (r.ID - off + p) % p
		r.Recv(src, tagRing+768+src)
	}
	for _, q := range reqs {
		r.Wait(q)
	}
	m.fence()
}

// AlltoallvSparse is Alltoallv for mostly-zero size matrices: the flood
// only posts sends to partners the matrix actually addresses and drains
// only sources that address this rank (the matrix is global knowledge,
// so both sides agree). The fences still bracket the exchange — CMPI
// never loosens its grip on the communication system.
func (m *Middleware) AlltoallvSparse(sizes [][]int) {
	r := m.R
	p := r.Size()
	if p == 1 {
		return
	}
	if len(sizes) != p {
		panic("cmpi: AlltoallvSparse needs a p×p matrix")
	}
	m.fence()
	reqs := make([]*mpi.Request, 0, p-1)
	for off := 1; off < p; off++ {
		dst := (r.ID + off) % p
		if sizes[r.ID][dst] > 0 {
			reqs = append(reqs, r.Isend(dst, tagRing+768+r.ID, sizes[r.ID][dst]))
		}
	}
	for off := 1; off < p; off++ {
		src := (r.ID - off + p) % p
		if sizes[src][r.ID] > 0 {
			r.Recv(src, tagRing+768+src)
		}
	}
	for _, q := range reqs {
		r.Wait(q)
	}
	m.fence()
}

// Barrier in CMPI is just Sync.
func (m *Middleware) Barrier() { m.Sync() }
