package space

import (
	"fmt"
	"math"

	"repro/internal/kernels"
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

	// The scan's lanes: the pool they run on, each lane's home cells
	// [cellOff[r], cellOff[r+1]) and buffer region [region[r],
	// region[r+1]), and what it found; the closures are bound once.
	pool               *kernels.Pool
	cellOff, region    []int
	lanePairs          [][]Pair
	laneEvals          []int64
	cBuf               []Pair // the buffer of the scan in progress
	estimateFn, scanFn func(r int)
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
	cl.bindLanes()
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

// SetPool attaches (or with nil detaches) the pool whose workers scan the
// list's lanes. It changes which goroutines scan, never a pair or its
// place in the list.
func (cl *CellList) SetPool(p *kernels.Pool) { cl.pool = p }

// PairsAppend returns all unordered pairs (i<j) whose minimum-image
// distance is at most the cutoff, appended into dst (reset to dst[:0]) so
// steady-state callers can reuse one pair buffer across rebuilds. The work
// counter, if non-nil, is incremented by the number of distance
// evaluations performed (the quantity the performance model charges for
// neighbour-list construction). Distances come from the coordinates
// binned at construction/Rebuild time (pos must be the same array, and is
// retained in the signature for that contract).
//
// The pool's W workers scan W contiguous ranges of home cells, each into
// its own region of one buffer, and the regions are then closed up in
// place: the pairs, their order and the count are the serial scan's at
// every W. The regions follow a sample scan of each range: they cut dst's
// storage in that proportion, or size a new buffer when dst has none. A
// region that still turns out short grows by append; several lanes are
// then copied into a new buffer, of the list's length, with append's
// headroom when dst had storage to reuse.
func (cl *CellList) PairsAppend(pos []vec.V, dst []Pair, distEvals *int64) []Pair {
	lanes := max(cl.pool.Workers(), 1)
	cl.splitCells(lanes)
	if len(cl.region) < lanes+1 {
		cl.region = make([]int, lanes+1)
		cl.lanePairs = make([][]Pair, lanes)
		cl.laneEvals = make([]int64, lanes)
	}
	reuse := cap(dst) > 0
	if lanes == 1 && reuse {
		cl.region[1] = cap(dst)
	} else {
		cl.pool.Run(lanes, cl.estimateFn)
		for r := 0; r < lanes; r++ {
			cl.region[r+1] += cl.region[r]
		}
		if want := cl.region[lanes]; !reuse {
			dst = make([]Pair, 0, want)
		} else {
			// Reused storage is cut in proportion to the estimates, all of
			// it, as one worker's scan uses all of it.
			for r := 1; r <= lanes; r++ {
				cl.region[r] = int(int64(cl.region[r]) * int64(cap(dst)) / int64(want))
			}
		}
	}
	cl.cBuf = dst[:cap(dst)]
	cl.pool.Run(lanes, cl.scanFn)
	cl.cBuf = nil

	n, short := 0, false
	for r := 0; r < lanes; r++ {
		n += len(cl.lanePairs[r])
		short = short || len(cl.lanePairs[r]) > cl.region[r+1]-cl.region[r]
		if distEvals != nil {
			*distEvals += cl.laneEvals[r]
		}
	}
	var pairs []Pair
	rest := cl.lanePairs[:lanes]
	switch {
	case !short:
		// Lane 0's region starts the buffer; every later one moves down to
		// follow it (or stays put), never over a region not yet moved.
		pairs, rest = dst[:len(rest[0])], rest[1:]
	case lanes == 1:
		pairs, rest = rest[0], nil // grown by append, with its headroom
	case reuse:
		pairs = make([]Pair, 0, n+n/4) // the headroom append would give
	default:
		pairs = make([]Pair, 0, n)
	}
	for _, lp := range rest {
		pairs = append(pairs, lp...)
	}
	clear(cl.lanePairs)
	return pairs
}

// splitCells cuts the home cells into lanes contiguous ranges
// [cellOff[r], cellOff[r+1]) of about equal scan work: a home cell of k
// atoms evaluates k(k−1)/2 distances in itself and k·m against each
// half-shell neighbour of m.
func (cl *CellList) splitCells(lanes int) {
	ncell := len(cl.start) - 1
	cl.cellOff = append(cl.cellOff[:0], 0)
	occ := func(c int32) int64 { return int64(cl.start[c+1] - cl.start[c]) }
	evals := func(home int) int64 {
		k := occ(int32(home))
		e := k * (k - 1) / 2
		for _, nb := range cl.nbCells[cl.nbStart[home]:cl.nbStart[home+1]] {
			e += k * occ(nb)
		}
		return e
	}
	var total int64
	if lanes > 1 {
		for home := 0; home < ncell; home++ {
			total += evals(home)
		}
	}
	var done int64
	for home := 0; home < ncell && len(cl.cellOff) < lanes; home++ {
		done += evals(home)
		for len(cl.cellOff) < lanes && done*int64(lanes) >= total*int64(len(cl.cellOff)) {
			cl.cellOff = append(cl.cellOff, home+1)
		}
	}
	for len(cl.cellOff) <= lanes {
		cl.cellOff = append(cl.cellOff, ncell)
	}
}

// bindLanes binds the lane closures PairsAppend runs on the pool, so that
// a scan allocates nothing but its buffer.
func (cl *CellList) bindLanes() {
	// Lane r's region estimate, stored at region[r+1] for the prefix sum.
	cl.estimateFn = func(r int) {
		cl.region[r+1] = cl.pairsEstimate(cl.cellOff[r], cl.cellOff[r+1])
	}
	cl.scanFn = func(r int) {
		lo, hi := cl.region[r], cl.region[r+1]
		cl.lanePairs[r], cl.laneEvals[r] = cl.scan(cl.cellOff[r], cl.cellOff[r+1], cl.cBuf[lo:lo:hi])
	}
}

// scan appends to pairs the pairs of home cells [c0, c1), in the serial
// scan's order, and counts its distance evaluations.
func (cl *CellList) scan(c0, c1 int, pairs []Pair) ([]Pair, int64) {
	cut2 := cl.cutoff * cl.cutoff
	lx, ly, lz := cl.box.L.X, cl.box.L.Y, cl.box.L.Z
	hx, hy, hz := 0.49*lx, 0.49*ly, 0.49*lz
	var evals int64
	for home := c0; home < c1; home++ {
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
	return pairs, evals
}

// pairsEstimate sizes the pair buffer of home cells [c0, c1) by running
// the scan on a sample: every 16th atom of each cell against the atoms
// the full scan pairs that cell with, scaled back up, plus a fifth (on a
// water lattice the sample reads up to 7 % low). Cell occupancies alone
// will not do: against a uniform fill of its cells the solvated protein
// lists 1.55 times the pairs, and 1.8 times what the box-wide density
// N²·(4/3)πr³/2V gives.
func (cl *CellList) pairsEstimate(c0, c1 int) int {
	const stride = 16
	var est float64
	for home := c0; home < c1; home++ {
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
