package space

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// Pair is an unordered atom pair (I < J).
type Pair struct {
	I, J int32
}

// CellList bins positions into a regular grid of cells whose edge is at
// least the search cutoff, so that all pairs within the cutoff are found by
// scanning each cell against itself and its 26 (half, by symmetry) periodic
// neighbours.
type CellList struct {
	box        Box
	cutoff     float64
	nx, ny, nz int
	// Half-shell stencil in CSR layout, computed once: the neighbour cells
	// home scans against are nbCells[nbStart[home]:nbStart[home+1]].
	nbStart, nbCells []int32
	// Cell occupancy in CSR layout: cell c holds atoms[start[c]:start[c+1]],
	// in ascending atom index.
	start []int32
	atoms []int32
	// Structure-of-arrays coordinate copies parallel to atoms: the pair scan
	// streams these contiguous batches instead of gathering vec.V positions
	// through the index indirection. Values are the exact binned positions,
	// so distances are bitwise identical to box.Dist2.
	sx, sy, sz []float64
	cellOf     []int32 // cell index per atom
}

// NewCellList builds a cell list for the given positions. cutoff must be
// positive and no larger than box.MaxCutoff(). The list's storage is
// reusable: Rebuild rebins new positions without reallocating.
func NewCellList(box Box, cutoff float64, pos []vec.V) *CellList {
	if cutoff <= 0 {
		panic("space: non-positive cutoff")
	}
	if cutoff > box.MaxCutoff() {
		panic(fmt.Sprintf("space: cutoff %g exceeds minimum-image limit %g", cutoff, box.MaxCutoff()))
	}
	cl := &CellList{box: box, cutoff: cutoff}
	// Cells at least `cutoff` wide; at least 1 per dimension.
	cl.nx = maxInt(1, int(box.L.X/cutoff))
	cl.ny = maxInt(1, int(box.L.Y/cutoff))
	cl.nz = maxInt(1, int(box.L.Z/cutoff))
	cl.start = make([]int32, cl.nx*cl.ny*cl.nz+1)
	cl.buildStencil()
	cl.Rebuild(pos)
	return cl
}

// buildStencil lists, for every home cell, the neighbour cells of higher
// index among its 26 periodic neighbours, each once, in stencil order
// (lower-indexed neighbours scan the pair when they are home). With fewer
// than 3 cells along a dimension, wrapping aliases two stencil offsets to
// one cell; the visited stamp drops the repeat.
func (cl *CellList) buildStencil() {
	ncell := len(cl.start) - 1
	cl.nbStart = make([]int32, ncell+1)
	seen := make([]int32, ncell) // 1-based stamp of the last home that listed the cell
	for cx := 0; cx < cl.nx; cx++ {
		for cy := 0; cy < cl.ny; cy++ {
			for cz := 0; cz < cl.nz; cz++ {
				home := (cx*cl.ny+cy)*cl.nz + cz
				stamp := int32(home + 1)
				for dx := -1; dx <= 1; dx++ {
					for dy := -1; dy <= 1; dy++ {
						for dz := -1; dz <= 1; dz++ {
							nb := (mod(cx+dx, cl.nx)*cl.ny+mod(cy+dy, cl.ny))*cl.nz + mod(cz+dz, cl.nz)
							if nb <= home || seen[nb] == stamp {
								continue
							}
							seen[nb] = stamp
							cl.nbCells = append(cl.nbCells, int32(nb))
						}
					}
				}
				cl.nbStart[home+1] = int32(len(cl.nbCells))
			}
		}
	}
}

// Rebuild rebins positions into the existing grid by counting sort, reusing
// all storage (no allocation unless the atom count grew).
func (cl *CellList) Rebuild(pos []vec.V) {
	n := len(pos)
	if cap(cl.cellOf) < n {
		cl.cellOf = make([]int32, n)
		cl.atoms = make([]int32, n)
		cl.sx = make([]float64, n)
		cl.sy = make([]float64, n)
		cl.sz = make([]float64, n)
	}
	cl.cellOf, cl.atoms = cl.cellOf[:n], cl.atoms[:n]
	cl.sx, cl.sy, cl.sz = cl.sx[:n], cl.sy[:n], cl.sz[:n]

	// Count into start[c+1], prefix-sum to cell starts, then place atoms in
	// index order with start[c] as cell c's cursor; the cursors end one
	// cell ahead and are shifted back.
	start := cl.start
	for c := range start {
		start[c] = 0
	}
	for i, p := range pos {
		c := int32(cl.cellIndex(p))
		cl.cellOf[i] = c
		start[c+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	for i, p := range pos {
		c := cl.cellOf[i]
		k := start[c]
		start[c]++
		cl.atoms[k] = int32(i)
		cl.sx[k], cl.sy[k], cl.sz[k] = p.X, p.Y, p.Z
	}
	copy(start[1:], start)
	start[0] = 0
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (cl *CellList) cellIndex(p vec.V) int {
	f := cl.box.Frac(p)
	ix := int(f.X * float64(cl.nx))
	iy := int(f.Y * float64(cl.ny))
	iz := int(f.Z * float64(cl.nz))
	// Guard against f == 1-ulp rounding up to the cell count.
	if ix == cl.nx {
		ix--
	}
	if iy == cl.ny {
		iy--
	}
	if iz == cl.nz {
		iz--
	}
	return (ix*cl.ny+iy)*cl.nz + iz
}

// Pairs returns all unordered pairs (i<j) whose minimum-image distance is
// at most the cutoff. The work counter, if non-nil, is incremented by the
// number of distance evaluations performed (the quantity the performance
// model charges for neighbour-list construction).
func (cl *CellList) Pairs(pos []vec.V, distEvals *int64) []Pair {
	return cl.PairsAppend(pos, nil, distEvals)
}

// PairsAppend is Pairs appending into dst (reset to dst[:0]), so steady-
// state callers can reuse one pair buffer across rebuilds; a dst without
// capacity is sized by a sample scan first. Distances come from the
// coordinates binned at construction/Rebuild time (pos must be the same
// array, and is retained in the signature for that contract).
func (cl *CellList) PairsAppend(pos []vec.V, dst []Pair, distEvals *int64) []Pair {
	if cap(dst) == 0 {
		dst = make([]Pair, 0, cl.pairsEstimate())
	}
	pairs := dst[:0]
	cut2 := cl.cutoff * cl.cutoff
	lx, ly, lz := cl.box.L.X, cl.box.L.Y, cl.box.L.Z
	hx, hy, hz := 0.49*lx, 0.49*ly, 0.49*lz
	var evals int64
	for home := 0; home < len(cl.start)-1; home++ {
		lo, hi := cl.start[home], cl.start[home+1]
		own := cl.atoms[lo:hi]
		ox, oy, oz := cl.sx[lo:hi], cl.sy[lo:hi], cl.sz[lo:hi]
		// Pairs within the home cell, batched over the cell's SoA
		// coordinates (identical distances and pair order as the
		// position-array walk: same mi1 per axis, same sum).
		for a := 0; a < len(own); a++ {
			ax, ay, az := ox[a], oy[a], oz[a]
			for b := a + 1; b < len(own); b++ {
				evals++
				dx := mi1near(ax-ox[b], lx, hx)
				dy := mi1near(ay-oy[b], ly, hy)
				dz := mi1near(az-oz[b], lz, hz)
				if dx*dx+dy*dy+dz*dz <= cut2 {
					pairs = appendOrdered(pairs, own[a], own[b])
				}
			}
		}
		// Pairs against each neighbour cell of the half shell.
		for _, nb := range cl.nbCells[cl.nbStart[home]:cl.nbStart[home+1]] {
			lo, hi := cl.start[nb], cl.start[nb+1]
			other := cl.atoms[lo:hi]
			bx, by, bz := cl.sx[lo:hi], cl.sy[lo:hi], cl.sz[lo:hi]
			for a, i := range own {
				ax, ay, az := ox[a], oy[a], oz[a]
				for b, j := range other {
					evals++
					ddx := mi1near(ax-bx[b], lx, hx)
					ddy := mi1near(ay-by[b], ly, hy)
					ddz := mi1near(az-bz[b], lz, hz)
					if ddx*ddx+ddy*ddy+ddz*ddz <= cut2 {
						pairs = appendOrdered(pairs, i, j)
					}
				}
			}
		}
	}
	if distEvals != nil {
		*distEvals += evals
	}
	return pairs
}

// pairsEstimate sizes a pair buffer by running the scan on a sample: every
// 16th atom of each cell against the atoms the full scan pairs that cell
// with, scaled back up, plus a fifth (on a water lattice the sample reads
// up to 7 % low). Cell occupancies alone will not do: against a uniform
// fill of its cells the solvated protein lists 1.55 times the pairs, and
// 1.8 times what the box-wide density N²·(4/3)πr³/2V gives. A buffer that
// still turns out short grows by append.
func (cl *CellList) pairsEstimate() int {
	const stride = 16
	var est float64
	for home := 0; home < len(cl.start)-1; home++ {
		lo, hi := cl.start[home], cl.start[home+1]
		var inCell, across, sampled int
		for a := lo; a < hi; a += stride {
			sampled++
			ax, ay, az := cl.sx[a], cl.sy[a], cl.sz[a]
			inCell += cl.countNear(ax, ay, az, lo, hi) - 1 // less the atom itself
			for _, nb := range cl.nbCells[cl.nbStart[home]:cl.nbStart[home+1]] {
				across += cl.countNear(ax, ay, az, cl.start[nb], cl.start[nb+1])
			}
		}
		if sampled > 0 {
			// A pair inside the cell is seen from both its ends.
			est += (float64(inCell)/2 + float64(across)) * float64(hi-lo) / float64(sampled)
		}
	}
	return int(1.2*est) + 64
}

// countNear counts the binned atoms [lo, hi) within the cutoff of a point.
func (cl *CellList) countNear(ax, ay, az float64, lo, hi int32) int {
	cut2 := cl.cutoff * cl.cutoff
	lx, ly, lz := cl.box.L.X, cl.box.L.Y, cl.box.L.Z
	hx, hy, hz := 0.49*lx, 0.49*ly, 0.49*lz
	bx, by, bz := cl.sx[lo:hi], cl.sy[lo:hi], cl.sz[lo:hi]
	n := 0
	for b := range bx {
		dx := mi1near(ax-bx[b], lx, hx)
		dy := mi1near(ay-by[b], ly, hy)
		dz := mi1near(az-bz[b], lz, hz)
		if dx*dx+dy*dy+dz*dz <= cut2 {
			n++
		}
	}
	return n
}

// mi1near is mi1 for callers that only square the result, given h = 0.49·l:
// within h the nearest image is d itself (|d/l| < 0.5 rounds to ±0, and
// d − l·(±0) is d up to the sign of a zero), so the division and the
// rounding are skipped.
func mi1near(d, l, h float64) float64 {
	if d > h || d < -h {
		return d - l*math.Round(d/l) // mi1, written out: the call would cost this function its inlining
	}
	return d
}

func appendOrdered(pairs []Pair, i, j int32) []Pair {
	if i > j {
		i, j = j, i
	}
	return append(pairs, Pair{i, j})
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// BruteForcePairs returns all pairs within cutoff by the O(N²) method.
// It exists as the ground truth for testing cell lists.
func BruteForcePairs(box Box, cutoff float64, pos []vec.V) []Pair {
	var pairs []Pair
	cut2 := cutoff * cutoff
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			if box.Dist2(pos[i], pos[j]) <= cut2 {
				pairs = append(pairs, Pair{int32(i), int32(j)})
			}
		}
	}
	return pairs
}
