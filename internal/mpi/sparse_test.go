package mpi

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// sparseOf builds the planned form of a dense size matrix.
func sparseOf(sizes [][]int) *Sparse {
	return NewSparse(len(sizes), func(add func(i, j, bytes int)) {
		for i, row := range sizes {
			for j, b := range row {
				add(i, j, b)
			}
		}
	})
}

// denseOf returns m as a p×p matrix, sizes[i][j] the bytes rank i sends
// rank j, through the walk the communication log reads it by.
func denseOf(m *Sparse) [][]int {
	d := make([][]int, m.p)
	for i := range d {
		d[i] = make([]int, m.p)
	}
	m.Each(func(src, dst, bytes int) { d[src][dst] = bytes })
	return d
}

// fullWalkRound is the reference the planned sparse all-to-all must match:
// the pairwise schedule's every shift 1 … p−1 over the dense matrix,
// posting the non-empty halves of each round.
func (r *Rank) fullWalkRound(s *segment, i int) bool {
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

// fullFloodRound is the reference of CMPI's sparse flood: the isends to
// the ranks 1 … p−1 ahead that it sends to, the receives from the ranks
// 1 … p−1 behind that send to it, then the waits, over the dense matrix.
func (r *Rank) fullFloodRound(s *segment, i int) bool {
	p := r.Size()
	off := i%(p-1) + 1
	switch i / (p - 1) {
	case 0:
		dst := (r.ID + off) % p
		if b := s.sizes[r.ID][dst]; b > 0 {
			r.add(primIsend, dst, tagFlood+r.ID, b)
		}
	case 1:
		src := (r.ID - off + p) % p
		if s.sizes[src][r.ID] > 0 {
			r.add(primRecv, src, tagFlood+src, 0)
		}
	default:
		return r.floodWait()
	}
	return true
}

// planOf returns every primitive the rounds of seg plan for rank id of a
// p-rank world, in order, without running them: an isend joins the rank's
// queue of isends and a wait leaves it, as when the call runs.
func planOf(p, id int, seg segment) []prim {
	r := &Rank{W: &World{ranks: make([]*Rank, p)}, ID: id}
	c := &r.call
	c.r = r
	var out []prim
	for i := 0; seg.rounds(r, &seg, i); i++ {
		for _, pr := range c.plan[:c.n] {
			switch pr.kind {
			case primIsend:
				c.reqs = append(c.reqs, nil)
			case primWait:
				c.reqs = c.reqs[1:]
			}
		}
		out = append(out, c.plan[:c.n]...)
		c.n = 0
	}
	return out
}

func transposed(sizes [][]int) [][]int {
	t := make([][]int, len(sizes))
	for i := range t {
		t[i] = make([]int, len(sizes))
		for j := range t[i] {
			t[i][j] = sizes[j][i]
		}
	}
	return t
}

// checkPlans holds every rank's plans over the planned matrix, its
// transpose and the dense-matrix entry point to the full walk's, for the
// MPI sparse all-to-all and CMPI's sparse flood.
func checkPlans(t *testing.T, sizes [][]int) {
	t.Helper()
	p := len(sizes)
	m := sparseOf(sizes)
	if got := denseOf(m); !slices.EqualFunc(got, sizes, slices.Equal) {
		t.Fatalf("p=%d: the walk of the planned matrix differs from the matrix", p)
	}
	var partners []sparseEntry
	for _, v := range []struct {
		name  string
		dense [][]int
		m     *Sparse
	}{{"matrix", sizes, m}, {"transpose", transposed(sizes), m.T()}} {
		if got := denseOf(v.m); !slices.EqualFunc(got, v.dense, slices.Equal) {
			t.Fatalf("p=%d %s: the walk differs", p, v.name)
		}
		for id := range p {
			row := v.m.row(id)
			ref := planOf(p, id, segment{rounds: (*Rank).fullWalkRound, sizes: v.dense})
			got := planOf(p, id, segment{rounds: (*Rank).alltoallvSparseRound, row: row, flip: v.m.t})
			if !slices.Equal(got, ref) {
				t.Fatalf("p=%d %s rank %d: AlltoallvPartners plans\n%v\nthe full walk\n%v", p, v.name, id, got, ref)
			}
			partners = fillPartners(partners, v.dense, id)
			got = planOf(p, id, segment{rounds: (*Rank).alltoallvSparseRound, row: partners})
			if !slices.Equal(got, ref) {
				t.Fatalf("p=%d %s rank %d: AlltoallvSparse plans\n%v\nthe full walk\n%v", p, v.name, id, got, ref)
			}
			if p < 2 {
				continue
			}
			ref = planOf(p, id, segment{rounds: (*Rank).fullFloodRound, sizes: v.dense})
			got = planOf(p, id, segment{rounds: (*Rank).sparseFloodRound, row: row, flip: v.m.t})
			if !slices.Equal(got, ref) {
				t.Fatalf("p=%d %s rank %d: CMPI AlltoallvSparse plans\n%v\nthe full flood\n%v", p, v.name, id, got, ref)
			}
		}
	}
}

// decodeMatrix reads a fuzz input as a rank count p ∈ [1, 70] and a size
// matrix: byte 0 picks p, then each byte pair skips that many off-diagonal
// cells in row-major order and sets the next one to 64·value bytes (zero
// for 0). Cells the input does not reach are zero.
func decodeMatrix(data []byte) [][]int {
	p := 1
	if len(data) > 0 {
		p += int(data[0]) % 70
		data = data[1:]
	}
	sizes := make([][]int, p)
	for i := range sizes {
		sizes[i] = make([]int, p)
	}
	cell := 0
	for ; len(data) >= 2 && p > 1; data = data[2:] {
		cell += int(data[0])
		if cell >= p*(p-1) {
			break
		}
		i, j := cell/(p-1), cell%(p-1)
		if j >= i {
			j++
		}
		sizes[i][j] = 64 * int(data[1])
		cell++
	}
	return sizes
}

// encodeMatrix is decodeMatrix's inverse for matrices of 64-byte multiples
// up to 64·255.
func encodeMatrix(sizes [][]int) []byte {
	p := len(sizes)
	out, gap := []byte{byte(p - 1)}, 0
	for i := range p {
		for j := range p {
			if i == j {
				continue
			}
			if b := sizes[i][j]; b == 0 {
				gap++
			} else {
				for ; gap > 255; gap -= 256 {
					out = append(out, 255, 0)
				}
				out = append(out, byte(gap), byte(b/64))
				gap = 0
			}
		}
	}
	return out
}

func zeroSizes(p int) [][]int {
	m := make([][]int, p)
	for i := range m {
		m[i] = make([]int, p)
	}
	return m
}

// haloSizes is a domain grid's 26-neighbour halo at nx·ny·nz ranks: every
// domain ships its atoms to each coupled neighbour, both ways.
func haloSizes(nx, ny, nz int) [][]int {
	p := nx * ny * nz
	m := zeroSizes(p)
	for d := range p {
		x, y, z := d/(ny*nz), d/nz%ny, d%nz
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					e := ((x+dx+nx)%nx*ny+(y+dy+ny)%ny)*nz + (z+dz+nz)%nz
					if e != d {
						m[d][e] = 64 * (1 + (d+e)%200)
					}
				}
			}
		}
	}
	return m
}

// pencilSizes is the transposes of a p2×p3 pencil grid: within each row
// (rows) or each column of it, every pencil sends to every other.
func pencilSizes(p2, p3 int, rows bool) [][]int {
	p := p2 * p3
	m := zeroSizes(p)
	for q := range p {
		for q2 := range p {
			if q2 != q && (rows && q/p3 == q2/p3 || !rows && q%p3 == q2%p3) {
				m[q][q2] = 64 * (1 + (3*q+q2)%100)
			}
		}
	}
	return m
}

// FuzzSparsePlan: over any size matrix, every rank of the planned sparse
// all-to-all, its transpose and the dense-matrix entry point plans the
// identical primitive sequence (kind, peer, tag, bytes) the full p−1-shift
// walk plans, and CMPI's sparse flood the one the full flood plans.
func FuzzSparsePlan(f *testing.F) {
	dense := zeroSizes(9)
	for i := range dense {
		for j := range dense[i] {
			if i != j {
				dense[i][j] = 64 * (1 + i + 2*j)
			}
		}
	}
	for _, sizes := range [][][]int{
		haloSizes(3, 3, 3),
		pencilSizes(4, 4, true),
		pencilSizes(4, 4, false),
		zeroSizes(12),
		dense,
	} {
		f.Add(encodeMatrix(sizes))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPlans(t, decodeMatrix(data))
	})
}

func TestSparseMatrixCodecRoundTrips(t *testing.T) {
	for _, sizes := range [][][]int{haloSizes(4, 4, 4), pencilSizes(8, 8, false), zeroSizes(1), zeroSizes(70)} {
		if got := decodeMatrix(encodeMatrix(sizes)); !slices.EqualFunc(got, sizes, slices.Equal) {
			t.Fatalf("p=%d: the fuzz codec does not round-trip", len(sizes))
		}
	}
}

// TestSparseRejectsBadEntries: the constructor checks once what the
// rounds then trust, and names the entry.
func TestSparseRejectsBadEntries(t *testing.T) {
	for _, c := range []struct {
		i, j, bytes int
		want        string
	}{
		{0, 3, 8, "(0, 3) is outside 3×3"},
		{-1, 1, 8, "(-1, 1) is outside 3×3"},
		{2, 1, -8, "(2, 1) is negative"},
		{1, 1, 8, "(1, 1) is on the diagonal"},
		{1, 2, 1 << 31, "(1, 2) exceeds int32"},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Errorf("entry (%d, %d) = %d: got panic %q, want %q", c.i, c.j, c.bytes, msg, c.want)
				}
			}()
			NewSparse(3, func(add func(i, j, bytes int)) {
				add(0, 1, 8)
				add(c.i, c.j, c.bytes)
			})
		}()
	}
	// Zeros anywhere inside the shape, the diagonal included, are no entry.
	m := NewSparse(3, func(add func(i, j, bytes int)) {
		add(1, 1, 0)
		add(0, 2, 0)
		add(2, 0, 5)
		add(2, 0, 7)
	})
	if got := denseOf(m); !slices.EqualFunc(got, [][]int{{0, 0, 0}, {0, 0, 0}, {12, 0, 0}}, slices.Equal) {
		t.Fatalf("zeros dropped and repeats summed: got %v", got)
	}
}

// TestSparseBuildAllocatesNoMatrix: building the planned form of a
// 26-neighbour halo takes at most six allocations and 32 bytes per entry
// plus 8 per rank at p = 64, 256 and 1024, so no p×p intermediate exists.
func TestSparseBuildAllocatesNoMatrix(t *testing.T) {
	for _, dims := range [][3]int{{4, 4, 4}, {8, 8, 4}, {16, 8, 8}} {
		nx, ny, nz := dims[0], dims[1], dims[2]
		p := nx * ny * nz
		halo := func(add func(i, j, bytes int)) {
			for d := range p {
				x, y, z := d/(ny*nz), d/nz%ny, d%nz
				for dx := -1; dx <= 1; dx++ {
					for dy := -1; dy <= 1; dy++ {
						for dz := -1; dz <= 1; dz++ {
							e := ((x+dx+nx)%nx*ny+(y+dy+ny)%ny)*nz + (z+dz+nz)%nz
							if e != d {
								add(d, e, 512)
							}
						}
					}
				}
			}
		}
		if got := testing.AllocsPerRun(10, func() { NewSparse(p, halo) }); got > 6 {
			t.Errorf("p=%d: building a halo takes %g allocations, want at most 6", p, got)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		NewSparse(p, halo)
		runtime.ReadMemStats(&after)
		if got, want := after.TotalAlloc-before.TotalAlloc, uint64(32*26*p+8*p+1024); got > want {
			t.Errorf("p=%d: building a halo allocates %d B, want at most %d", p, got, want)
		}
	}
}

// TestSparseEachAllocatesNothing: the walk the communication log reads a
// sparse all-to-all by allocates nothing, in either orientation, and visits
// every byte once. A named matrix keeps its name; its transpose, another
// exchange, has none.
func TestSparseEachAllocatesNothing(t *testing.T) {
	sizes := haloSizes(4, 4, 4)
	total := 0
	for _, row := range sizes {
		for _, b := range row {
			total += b
		}
	}
	m := sparseOf(sizes).Named("halo")
	for _, v := range []*Sparse{m, m.T()} {
		sum := 0
		walk := func() {
			sum = 0
			v.Each(func(_, _, bytes int) { sum += bytes })
		}
		if got := testing.AllocsPerRun(10, walk); got != 0 {
			t.Errorf("the walk allocates %g times", got)
		}
		if sum != total {
			t.Errorf("the walk visits %d bytes of %d", sum, total)
		}
	}
	if c, ct := m.call(), m.T().call(); c.Name != "halo" || ct.Name != "" || c.Pairs != m {
		t.Errorf("a named matrix reports %+v and its transpose %+v", c, ct)
	}
}
