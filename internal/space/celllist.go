package space

import (
	"fmt"

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
	cells      [][]int32 // atom indices per cell
	// Per-cell structure-of-arrays coordinate copies, parallel to cells:
	// the pair scan streams these contiguous batches instead of gathering
	// vec.V positions through the index indirection. Values are the exact
	// binned positions, so distances are bitwise identical to box.Dist2.
	cx, cy, cz [][]float64
	cellOf     []int32 // cell index per atom
	seen       []int32 // visited-cell stamps, reused across Pairs calls
	stamp      int32
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
	// Cells at least `cutoff` wide; at least 1 per dimension. With fewer
	// than 3 cells along a dimension the neighbour stencil would visit a
	// cell twice through periodic wrapping, so the pair scan deduplicates
	// via a visited-cell check instead of relying on geometry alone.
	cl.nx = maxInt(1, int(box.L.X/cutoff))
	cl.ny = maxInt(1, int(box.L.Y/cutoff))
	cl.nz = maxInt(1, int(box.L.Z/cutoff))
	cl.cells = make([][]int32, cl.nx*cl.ny*cl.nz)
	cl.cx = make([][]float64, len(cl.cells))
	cl.cy = make([][]float64, len(cl.cells))
	cl.cz = make([][]float64, len(cl.cells))
	cl.cellOf = make([]int32, len(pos))
	cl.seen = make([]int32, len(cl.cells))
	cl.bin(pos)
	return cl
}

// Rebuild rebins positions into the existing grid, reusing all per-cell
// storage (no steady-state allocation once the cell occupancies have
// reached their high-water marks).
func (cl *CellList) Rebuild(pos []vec.V) {
	for c := range cl.cells {
		cl.cells[c] = cl.cells[c][:0]
		cl.cx[c] = cl.cx[c][:0]
		cl.cy[c] = cl.cy[c][:0]
		cl.cz[c] = cl.cz[c][:0]
	}
	if cap(cl.cellOf) < len(pos) {
		cl.cellOf = make([]int32, len(pos))
	}
	cl.cellOf = cl.cellOf[:len(pos)]
	cl.bin(pos)
}

func (cl *CellList) bin(pos []vec.V) {
	for i, p := range pos {
		c := cl.cellIndex(p)
		cl.cellOf[i] = int32(c)
		cl.cells[c] = append(cl.cells[c], int32(i))
		cl.cx[c] = append(cl.cx[c], p.X)
		cl.cy[c] = append(cl.cy[c], p.Y)
		cl.cz[c] = append(cl.cz[c], p.Z)
	}
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
// state callers can reuse one pair buffer across rebuilds. Distances come
// from the coordinates binned at construction/Rebuild time (pos must be
// the same array, and is retained in the signature for that contract).
func (cl *CellList) PairsAppend(pos []vec.V, dst []Pair, distEvals *int64) []Pair {
	pairs := dst[:0]
	cut2 := cl.cutoff * cl.cutoff
	lx, ly, lz := cl.box.L.X, cl.box.L.Y, cl.box.L.Z
	var evals int64
	seen := cl.seen // visited marker per home cell, 1-based stamps
	stamp := cl.stamp
	for cx := 0; cx < cl.nx; cx++ {
		for cy := 0; cy < cl.ny; cy++ {
			for cz := 0; cz < cl.nz; cz++ {
				home := (cx*cl.ny+cy)*cl.nz + cz
				own := cl.cells[home]
				ox, oy, oz := cl.cx[home], cl.cy[home], cl.cz[home]
				// Pairs within the home cell, batched over the cell's SoA
				// coordinates (identical distances and pair order as the
				// position-array walk: same mi1 per axis, same sum).
				for a := 0; a < len(own); a++ {
					ax, ay, az := ox[a], oy[a], oz[a]
					for b := a + 1; b < len(own); b++ {
						evals++
						dx := mi1(ax-ox[b], lx)
						dy := mi1(ay-oy[b], ly)
						dz := mi1(az-oz[b], lz)
						if dx*dx+dy*dy+dz*dz <= cut2 {
							pairs = appendOrdered(pairs, own[a], own[b])
						}
					}
				}
				// Pairs against each neighbour cell, visiting each
				// unordered cell pair once.
				stamp++
				seen[home] = stamp
				for dx := -1; dx <= 1; dx++ {
					for dy := -1; dy <= 1; dy++ {
						for dz := -1; dz <= 1; dz++ {
							if dx == 0 && dy == 0 && dz == 0 {
								continue
							}
							nx := mod(cx+dx, cl.nx)
							ny := mod(cy+dy, cl.ny)
							nz := mod(cz+dz, cl.nz)
							nb := (nx*cl.ny+ny)*cl.nz + nz
							if nb <= home || seen[nb] == stamp {
								// Either handled when nb was the home cell,
								// or already scanned this round (possible
								// when a dimension has <3 cells and wrapping
								// aliases two stencil offsets to one cell).
								continue
							}
							seen[nb] = stamp
							other := cl.cells[nb]
							bx, by, bz := cl.cx[nb], cl.cy[nb], cl.cz[nb]
							for a, i := range own {
								ax, ay, az := ox[a], oy[a], oz[a]
								for b, j := range other {
									evals++
									ddx := mi1(ax-bx[b], lx)
									ddy := mi1(ay-by[b], ly)
									ddz := mi1(az-bz[b], lz)
									if ddx*ddx+ddy*ddy+ddz*ddz <= cut2 {
										pairs = appendOrdered(pairs, i, j)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	cl.stamp = stamp
	if distEvals != nil {
		*distEvals += evals
	}
	return pairs
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
