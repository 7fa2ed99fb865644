package mpi

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/trace"
)

// Sparse is the size matrix of a sparse personalized all-to-all (halo
// exchange, atom migration, pencil transpose), stored as each rank's
// partners: rank id's entries, in ascending shift order, hold the bytes it
// sends to (id+shift)%p and receives from (id−shift)%p in the pairwise
// round of that shift. A call over it plans one round per entry, so a
// rank's host work and the matrix's storage scale with its partners, not
// with p. NewSparse checks the shape, the signs and the diagonal once;
// the matrix is read-only after, so every rank of a run, and concurrent
// runs, share one.
type Sparse struct {
	p    int
	off  []int32 // rank id's entries are ents[off[id]:off[id+1]]
	ents []sparseEntry
	t    bool   // read transposed: see T
	name string // the exchange pattern: see Named
}

// sparseEntry is a rank's round with the ranks shift away on either side.
// A stored entry moves bytes in at least one direction.
type sparseEntry struct {
	shift, send, recv int32
}

// NewSparse builds the p×p size matrix whose non-zero entries cells emits:
// cells calls add(i, j, bytes) for row i, column j, in any order. Entries
// emitted more than once add up and zeros are dropped. cells runs twice,
// once to size the storage and once to fill it, so it must emit the same
// entries both times. NewSparse panics, naming (i, j), on an entry outside
// p×p, a negative entry, a non-zero diagonal entry or bytes beyond int32.
func NewSparse(p int, cells func(add func(i, j, bytes int))) *Sparse {
	if p < 1 {
		panic(fmt.Sprintf("mpi: sparse size matrix of %d ranks", p))
	}
	// Each non-zero entry is a send of rank i and a receive of rank j at
	// the shift (j−i)%p. Count them per rank, bucket them by rank, then
	// sort each bucket by shift and merge a rank's send and receive of one
	// shift into its entry.
	off := make([]int32, p+1)
	cells(func(i, j, b int) {
		checkEntry(p, i, j, b)
		if b > 0 {
			off[i]++
			off[j]++
		}
	})
	var n int32
	for r := range p { // off[r] becomes the end of rank r's bucket
		n += off[r]
		off[r] = n
	}
	off[p] = n
	ents := make([]sparseEntry, n)
	cells(func(i, j, b int) {
		if b > 0 {
			s := int32((j - i + p) % p)
			off[i]--
			ents[off[i]] = sparseEntry{shift: s, send: int32(b)}
			off[j]--
			ents[off[j]] = sparseEntry{shift: s, recv: int32(b)}
		}
	})
	if off[0] != 0 { // each bucket was filled down to its start
		panic("mpi: NewSparse's cells emitted different entries on its second run")
	}
	var w int32
	for r := range p {
		bucket := ents[off[r]:off[r+1]]
		slices.SortFunc(bucket, byShift)
		off[r] = w
		for _, e := range bucket {
			if w == off[r] || ents[w-1].shift != e.shift {
				ents[w] = e
				w++
				continue
			}
			m := &ents[w-1]
			send, recv := int64(m.send)+int64(e.send), int64(m.recv)+int64(e.recv)
			if send > math.MaxInt32 || recv > math.MaxInt32 {
				panic(fmt.Sprintf("mpi: size matrix entries (%d, %d) or (%d, %d) sum beyond int32",
					r, (r+int(e.shift))%p, (r-int(e.shift)+p)%p, r))
			}
			m.send, m.recv = int32(send), int32(recv)
		}
	}
	off[p] = w
	return &Sparse{p: p, off: off, ents: ents[:w]}
}

func byShift(a, b sparseEntry) int { return int(a.shift - b.shift) }

// checkEntry panics, naming (i, j), on an entry of a p×p size matrix that a
// sparse all-to-all cannot carry.
func checkEntry(p, i, j, b int) {
	switch {
	case i < 0 || i >= p || j < 0 || j >= p:
		panic(fmt.Sprintf("mpi: size matrix entry (%d, %d) is outside %d×%d", i, j, p, p))
	case b < 0:
		panic(fmt.Sprintf("mpi: size matrix entry (%d, %d) is negative: %d", i, j, b))
	case b > math.MaxInt32:
		panic(fmt.Sprintf("mpi: size matrix entry (%d, %d) exceeds int32: %d", i, j, b))
	case i == j && b != 0:
		panic(fmt.Sprintf("mpi: size matrix entry (%d, %d) is on the diagonal: %d", i, j, b))
	}
}

// T returns the transpose of m, in which rank i sends rank j what j sends
// i in m. It shares m's storage: a rank's round at shift s in the
// transpose is its round at shift p−s in m with send and receive swapped,
// so it reads its entries backwards. The transpose is another exchange,
// so it is unnamed.
func (m *Sparse) T() *Sparse {
	t := *m
	t.t, t.name = !m.t, ""
	return &t
}

// Named returns m as the exchange pattern name (halo, migration): a
// collective over it reports the name, so the communication log
// attributes its bytes to the pattern as well as to the transport
// collective. It shares m's storage.
func (m *Sparse) Named(name string) *Sparse {
	n := *m
	n.name = name
	return &n
}

// call is the collective call of a sparse all-to-all over m.
func (m *Sparse) call() trace.Call {
	return trace.Call{Kind: "alltoallv_sparse", Pairs: m, Name: m.name}
}

// row returns rank id's entries as stored.
func (m *Sparse) row(id int) []sparseEntry { return m.ents[m.off[id]:m.off[id+1]] }

// rowOf returns rank r's entries, checking that m is a matrix of r's world.
func (m *Sparse) rowOf(r *Rank) []sparseEntry {
	if m.p != r.Size() {
		panic(fmt.Sprintf("mpi: a %d-rank size matrix in a %d-rank world", m.p, r.Size()))
	}
	return m.row(r.ID)
}

// Each calls fn once for every positive entry of m, the bytes rank src
// sends rank dst, by ascending src and then shift. It allocates nothing.
func (m *Sparse) Each(fn func(src, dst, bytes int)) {
	for src := range m.p {
		row := m.row(src)
		for k := range row {
			if shift, send, _ := partner(row, m.t, m.p, k); send > 0 {
				fn(src, (src+shift)%m.p, send)
			}
		}
	}
}

// partner returns round k of a rank's entries, read transposed if flip:
// the shift, the bytes sent to the rank shift ahead and the bytes received
// from the rank shift behind.
func partner(row []sparseEntry, flip bool, p, k int) (shift, send, recv int) {
	if !flip {
		e := &row[k]
		return int(e.shift), int(e.send), int(e.recv)
	}
	e := &row[len(row)-1-k]
	return p - int(e.shift), int(e.recv), int(e.send)
}

// fillPartners sets buf to rank id's entries of the dense matrix sizes,
// which checkMatrix has shaped: one walk over the rank's row and column.
func fillPartners(buf []sparseEntry, sizes [][]int, id int) []sparseEntry {
	p := len(sizes)
	buf = buf[:0]
	for shift := 1; shift < p; shift++ {
		dst, src := (id+shift)%p, (id-shift+p)%p
		send, recv := sizes[id][dst], sizes[src][id]
		checkEntry(p, id, dst, send)
		checkEntry(p, src, id, recv)
		if send > 0 || recv > 0 {
			buf = append(buf, sparseEntry{shift: int32(shift), send: int32(send), recv: int32(recv)})
		}
	}
	return buf
}
