package pmd

import (
	"repro/internal/fft"
	"repro/internal/kernels"
	"repro/internal/md"
	"repro/internal/work"
)

// domainGeometry is the static spatial layout of the domain decomposition
// at rank count p: the 3-D domain grid, the 2-D (p2×p3) pencil grid of the
// PME mesh, the halo-coupling neighbourhoods and every collective size
// matrix that does not depend on atom ownership. Everything here is a
// pure function of problem + rank count (the determinism contract).
type domainGeometry struct {
	p          int
	dx, dy, dz int // domain grid
	p2, p3     int // pencil grid

	// Domain-region PME footprints in grid cells: the y/z cell intervals
	// a domain's atoms spread charge into (region expanded by the
	// B-spline support), and the total footprint points per domain.
	yLo, yLen []int
	zLo, zLen []int
	domainPts []int64

	// nbrs[i] lists the domains halo-coupled to i (within the list
	// cutoff under periodic boundaries), ascending, excluding i.
	nbrs [][]int

	// Pencil partitions: stage 1 owns (y∈p2-block, z∈p3-block, full-x
	// r2c lines); transpose 1 re-splits the half spectrum (h1 = K1/2+1)
	// over p2 gathering full y; transpose 2 re-splits y over p3
	// gathering full z.
	h1                         int
	yOff2, zOff3, xsOff, ysOff []int

	// Static collective size matrices (diagonals zero — local data does
	// not travel).
	sizesAssm [][]int // domain grid contribution → stage-1 pencils
	sizesGath [][]int // convolved potential back → domains
	sizesT1F  [][]int // transpose 1 forward (and transposed for inverse)
	sizesT1B  [][]int
	sizesT2F  [][]int // transpose 2 forward
	sizesT2B  [][]int

	// pencilPts[q] is the assembled grid points of stage-1 pencil q
	// (sum of every domain's overlapping footprint, own region included).
	pencilPts []int64

	// Modelled flops of one 1-D transform along each mesh axis.
	opsX, opsY, opsZ int64
}

func newDomainGeometry(p int, cfg Config) *domainGeometry {
	pmeCfg := cfg.MD.PME
	k1, k2, k3 := pmeCfg.K1, pmeCfg.K2, pmeCfg.K3
	g := &domainGeometry{p: p}
	g.dx, g.dy, g.dz = factor3(p)
	g.p2, g.p3 = pencilFactors(p)
	g.h1 = k1/2 + 1
	g.yOff2 = kernels.Partition(k2, g.p2, nil)
	g.zOff3 = kernels.Partition(k3, g.p3, nil)
	g.xsOff = kernels.Partition(g.h1, g.p2, nil)
	g.ysOff = kernels.Partition(k2, g.p3, nil)
	g.opsX, g.opsY, g.opsZ = fft.Ops(k1), fft.Ops(k2), fft.Ops(k3)

	// Halo coupling: domains whose regions come within the list cutoff
	// of each other under the minimum image convention.
	box := cfg.System.Box
	cut := cfg.MD.FF.ListCutoff
	cut2 := cut * cut
	g.nbrs = make([][]int, p)
	for i := 0; i < p; i++ {
		ixi, iyi, izi := g.domainCoords(i)
		for j := 0; j < p; j++ {
			if j == i {
				continue
			}
			ixj, iyj, izj := g.domainCoords(j)
			ax := axisGap(ixi, ixj, g.dx, box.L.X)
			ay := axisGap(iyi, iyj, g.dy, box.L.Y)
			az := axisGap(izi, izj, g.dz, box.L.Z)
			if ax*ax+ay*ay+az*az <= cut2 {
				g.nbrs[i] = append(g.nbrs[i], j)
			}
		}
	}

	// PME mesh footprint of each domain: the cells its atoms' order-point
	// B-splines write, i.e. the region's cell interval extended order−1
	// cells downward (spline support is [floor(u)−order+1, floor(u)]).
	order := pmeCfg.Order
	g.yLo = make([]int, p)
	g.yLen = make([]int, p)
	g.zLo = make([]int, p)
	g.zLen = make([]int, p)
	g.domainPts = make([]int64, p)
	for d := 0; d < p; d++ {
		_, iy, iz := g.domainCoords(d)
		g.yLo[d], g.yLen[d] = cellFootprint(iy, g.dy, k2, order)
		g.zLo[d], g.zLen[d] = cellFootprint(iz, g.dz, k3, order)
		g.domainPts[d] = int64(k1) * int64(g.yLen[d]) * int64(g.zLen[d])
	}

	// Grid assembly / potential gather between domains and pencils.
	g.sizesAssm = zeroMatrix(p)
	g.sizesGath = zeroMatrix(p)
	g.pencilPts = make([]int64, p)
	for d := 0; d < p; d++ {
		for q := 0; q < p; q++ {
			a, b := q/g.p3, q%g.p3
			ovY := wrapOverlap(g.yLo[d], g.yLen[d], k2, g.yOff2[a], g.yOff2[a+1])
			ovZ := wrapOverlap(g.zLo[d], g.zLen[d], k3, g.zOff3[b], g.zOff3[b+1])
			pts := k1 * ovY * ovZ
			g.pencilPts[q] += int64(pts)
			if d != q {
				g.sizesAssm[d][q] = bytesPerRealPoint * pts
				g.sizesGath[q][d] = bytesPerRealPoint * pts
			}
		}
	}

	// Pencil transposes: personalized all-to-alls within pencil rows and
	// columns on the half-spectrum grid.
	g.sizesT1F = zeroMatrix(p)
	g.sizesT1B = zeroMatrix(p)
	g.sizesT2F = zeroMatrix(p)
	g.sizesT2B = zeroMatrix(p)
	for q := 0; q < p; q++ {
		a, b := q/g.p3, q%g.p3
		zW := g.zOff3[b+1] - g.zOff3[b]
		for q2 := 0; q2 < p; q2++ {
			if q2 == q {
				continue
			}
			a2, b2 := q2/g.p3, q2%g.p3
			if b2 == b { // same z-block column: x-spectrum ↔ y re-split
				n := bytesPerPoint * (g.xsOff[a2+1] - g.xsOff[a2]) * (g.yOff2[a+1] - g.yOff2[a]) * zW
				g.sizesT1F[q][q2] = n
				g.sizesT1B[q2][q] = n
			}
			if a2 == a { // same x-spectrum row: y ↔ z re-split
				n := bytesPerPoint * (g.xsOff[a+1] - g.xsOff[a]) * (g.ysOff[b2+1] - g.ysOff[b2]) * zW
				g.sizesT2F[q][q2] = n
				g.sizesT2B[q2][q] = n
			}
		}
	}
	return g
}

func (g *domainGeometry) domainCoords(d int) (ix, iy, iz int) {
	return d / (g.dy * g.dz), (d / g.dz) % g.dy, d % g.dz
}

// axisGap is the minimum-image distance between two domain-grid cells
// along one axis (0 when the cells touch or the axis is undivided).
func axisGap(i, j, d int, l float64) float64 {
	if d == 1 {
		return 0
	}
	s := i - j
	if s < 0 {
		s = -s
	}
	if d-s < s {
		s = d - s
	}
	if s <= 1 {
		return 0
	}
	return float64(s-1) * l / float64(d)
}

// cellFootprint returns the wrapped cell interval [lo, lo+length) that
// atoms in grid-division i of d divisions spread onto a K-cell mesh axis
// with the given B-spline order.
func cellFootprint(i, d, k, order int) (lo, length int) {
	lo = k*i/d - (order - 1)
	hi := (k*(i+1) - 1) / d
	length = hi - lo + 1
	if length > k {
		length = k
	}
	return ((lo % k) + k) % k, length
}

// wrapOverlap counts the cells of the wrapped interval [lo, lo+length)
// (mod k) that fall inside [c0, c1).
func wrapOverlap(lo, length, k, c0, c1 int) int {
	if length >= k {
		return c1 - c0
	}
	total := segOverlap(lo, lo+length, k, c0, c1)
	if lo+length > k {
		total += segOverlap(0, lo+length-k, k, c0, c1)
	}
	return total
}

func segOverlap(s0, s1, k, c0, c1 int) int {
	if s1 > k {
		s1 = k
	}
	if s0 < c0 {
		s0 = c0
	}
	if s1 > c1 {
		s1 = c1
	}
	if s1 <= s0 {
		return 0
	}
	return s1 - s0
}

func zeroMatrix(p int) [][]int {
	m := make([][]int, p)
	for i := range m {
		m[i] = make([]int, p)
	}
	return m
}

// epochData is the ownership-dependent state of one neighbour-list epoch:
// the owner map, per-domain work counts and the halo-exchange size
// matrices. Ownership is fixed between list rebuilds (atoms migrate at
// rebuilds), so these matrices are static within an epoch.
type epochData struct {
	own  []int32
	nOwn []int

	counts epochCounts

	// haloSizes[i][j]: domain i ships all its owned atoms to each
	// half-shell neighbour j > i (the importer computes the shared pairs
	// and returns forces: frcRetSizes is the transpose).
	haloSizes   [][]int
	frcRetSizes [][]int
}

// epochCounts are the per-domain owner-computes work counts, produced by
// one shared scan per epoch (scanning p times per rank would itself be a
// serial bottleneck at high p).
type epochCounts struct {
	bonds, angles, dihs, imprs []int64
	p14, pairs, excl           []int64
}

// buildEpoch assigns ownership from the epoch's list-origin positions
// (the positions at rebuild time — the same input on every rank and on
// restart) and scans the topology + pair list once for per-domain counts.
func (g *domainGeometry) buildEpoch(c *canonical, st *canonState) *epochData {
	sys := c.sys
	n := sys.N()
	p := g.p
	ep := &epochData{
		own:  make([]int32, n),
		nOwn: make([]int, p),
	}
	box := sys.Box
	for i := 0; i < n; i++ {
		f := box.Frac(st.listOrigin[i])
		ix := gridIndex(f.X, g.dx)
		iy := gridIndex(f.Y, g.dy)
		iz := gridIndex(f.Z, g.dz)
		d := (ix*g.dy+iy)*g.dz + iz
		ep.own[i] = int32(d)
		ep.nOwn[d]++
	}
	cnt := &ep.counts
	cnt.bonds = make([]int64, p)
	cnt.angles = make([]int64, p)
	cnt.dihs = make([]int64, p)
	cnt.imprs = make([]int64, p)
	cnt.p14 = make([]int64, p)
	cnt.pairs = make([]int64, p)
	cnt.excl = make([]int64, p)
	// Owner-computes convention matching the half-shell import: the
	// highest-owner domain among a term's atoms holds every remote atom
	// in its halo, computes the term and returns the partial forces.
	own := ep.own
	for _, b := range sys.Bonds {
		cnt.bonds[max(own[b[0]], own[b[1]])]++
	}
	for _, a := range sys.Angles {
		cnt.angles[max(own[a[0]], max(own[a[1]], own[a[2]]))]++
	}
	for _, t := range sys.Dihedrals {
		cnt.dihs[max(max(own[t[0]], own[t[1]]), max(own[t[2]], own[t[3]]))]++
	}
	for _, t := range sys.Impropers {
		cnt.imprs[max(max(own[t[0]], own[t[1]]), max(own[t[2]], own[t[3]]))]++
	}
	for _, pr := range sys.Pairs14 {
		cnt.p14[max(own[pr[0]], own[pr[1]])]++
	}
	for _, pr := range c.pairs {
		cnt.pairs[max(own[pr.I], own[pr.J])]++
	}
	for i := 0; i < n; i++ {
		for _, j := range sys.Excl.Of(int(i)) {
			if int(j) > i {
				cnt.excl[max(own[i], own[j])]++
			}
		}
	}

	ep.haloSizes = zeroMatrix(p)
	ep.frcRetSizes = zeroMatrix(p)
	for i := 0; i < p; i++ {
		for _, j := range g.nbrs[i] {
			if j > i {
				b := bytesPerCoord * ep.nOwn[i]
				ep.haloSizes[i][j] = b
				ep.frcRetSizes[j][i] = b
			}
		}
	}
	return ep
}

// migrationSizes is the atom-migration all-to-all at a rebuild: each atom
// whose owner changed moves with position + velocity.
func (g *domainGeometry) migrationSizes(old, neu *epochData) [][]int {
	m := zeroMatrix(g.p)
	for i := range neu.own {
		if old.own[i] != neu.own[i] {
			m[old.own[i]][neu.own[i]] += 2 * bytesPerCoord
		}
	}
	return m
}

func gridIndex(f float64, d int) int {
	i := int(f * float64(d))
	if i >= d {
		i = d - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// domainDecomp drives one rank of the spatial decomposition. All physics
// values come from the canonical snapshots, evaluated by this run or
// served from a tape; the rank's own segments and sparse collectives
// charge the virtual time of the spatial pipeline, the same with or
// without a tape: drift of owned atoms, migration + half-shell halo
// exchange, owner-computes classic terms with force return, and the 2-D
// pencil PME (assemble → r2c x-FFTs → transpose → y-FFTs → transpose →
// z-FFTs + influence → the inverse chain → potential gather →
// interpolation).
type domainDecomp struct {
	canon *canonical    // evaluates the snapshots; nil when replaying
	taped []*canonState // a replay's snapshots, step s at s+1
	geo   *domainGeometry

	cur, prev *canonState
}

func newDomainDecomp(sh *shared, tape *Tape) *domainDecomp {
	if tape.Complete() {
		return &domainDecomp{taped: tape.snaps, geo: tape.geo}
	}
	return &domainDecomp{canon: sh.canon, geo: sh.canon.geo}
}

// state returns step's snapshot.
func (d *domainDecomp) state(step int) *canonState {
	if d.canon == nil {
		return d.taped[step+1]
	}
	return d.canon.state(step)
}

func (d *domainDecomp) initialForces(w *worker) {
	// The snapshot evaluation happens inside a segment so its host time
	// overlaps other ranks' schedules; it charges no virtual work (the
	// pipeline segments below charge the spatial model's work). A replay
	// runs the same segment around a lookup, so its schedule is the same.
	w.seg(work.Counters{}, func(*work.Counters) { d.cur = d.state(-1) })
	d.pipeline(w, nil, phaseTracker{})
	d.adopt(w)
}

func (d *domainDecomp) drift(w *worker, step int) {
	me := w.me()
	nOwn := int64(d.prev.epoch.nOwn[me])
	w.seg(work.Counters{Integrate: nOwn}, func(wc *work.Counters) {
		d.cur = d.state(step)
		wc.Integrate += nOwn
	})
	st := d.cur
	// On a rebuild step, migrate atoms to their new owners; then exchange
	// the half-shell halo (each domain ships its owned atoms to every
	// higher-id coupled neighbour).
	if st.rebuilt {
		if tl := w.cfg.Perf; tl != nil && me == 0 {
			tl.NamedMatrix("migration", st.migration)
		}
		w.c.AlltoallvSparse(st.migration)
	}
	if tl := w.cfg.Perf; tl != nil && me == 0 {
		tl.NamedMatrix("halo", st.epoch.haloSizes)
	}
	w.c.AlltoallvSparse(st.epoch.haloSizes)
}

func (d *domainDecomp) forces(w *worker, st *StepTiming, tr phaseTracker) md.EnergyReport {
	return d.pipeline(w, st, tr)
}

func (d *domainDecomp) kick(w *worker, rep *md.EnergyReport) {
	cs := d.cur
	nOwn := int64(cs.epoch.nOwn[w.me()])
	w.r.ComputeWork(work.Counters{Integrate: nOwn})
	w.c.Barrier()
	rep.Kinetic = cs.rep.Kinetic
	d.adopt(w)
}

// adopt points the worker's state at the current snapshot (the recorder
// and FinalPos read these fields) and retires it to prev.
func (d *domainDecomp) adopt(w *worker) {
	cs := d.cur
	w.pos, w.vel, w.frcTotal = cs.pos, cs.vel, cs.frcTotal
	w.listOrigin, w.listGen = cs.listOrigin, cs.listGen
	d.prev = cs
}

// pipeline charges the classic + pencil-PME pipeline of one evaluation.
// When st is non-nil it closes the classic sample with tr and fills the
// PME sample.
func (d *domainDecomp) pipeline(w *worker, st *StepTiming, tr phaseTracker) md.EnergyReport {
	cs := d.cur
	geo := d.geo
	me := w.me()
	ep := cs.epoch
	cnt := &ep.counts
	pmeCfg := w.cfg.MD.PME
	k1, k2, k3 := pmeCfg.K1, pmeCfg.K2, pmeCfg.K3
	o3 := int64(pmeCfg.Order) * int64(pmeCfg.Order) * int64(pmeCfg.Order)
	nOwn := int64(ep.nOwn[me])

	// Owner-computes classic terms over the domain's cell lists. On a
	// rebuild step the rank charges its share of the distributed list
	// search, like the replicated path.
	minC := work.Counters{
		BondTerms:     cnt.bonds[me],
		AngleTerms:    cnt.angles[me],
		DihedralTerms: cnt.dihs[me] + cnt.imprs[me],
		PairEvals:     cnt.pairs[me] + cnt.p14[me],
	}
	if cs.rebuilt {
		minC.ListDistEvals = cs.distEvals / int64(w.p)
	}
	w.r.ComputeWork(minC)

	// Return the partial forces of imported halo atoms to their owners,
	// then the per-step energy-array reduction.
	w.c.AlltoallvSparse(ep.frcRetSizes)
	w.c.Allreduce(2048, 0)
	if st != nil {
		st.Classic = tr.sample()
	}

	// ---------------- PME phase: 2-D pencil reciprocal ------------------
	trP := w.beginPhase()
	a, b := me/geo.p3, me%geo.p3
	xsW := int64(geo.xsOff[a+1] - geo.xsOff[a])
	yW2 := int64(geo.yOff2[a+1] - geo.yOff2[a])
	ysW := int64(geo.ysOff[b+1] - geo.ysOff[b])
	zW3 := int64(geo.zOff3[b+1] - geo.zOff3[b])

	// Spread own atoms onto the domain's local grid region.
	minSpread := work.Counters{GridCharges: nOwn * o3}
	w.r.ComputeWork(minSpread)
	// Ship the contributions to the stage-1 pencil owners.
	w.c.AlltoallvSparse(geo.sizesAssm)
	// Stage 1: assemble the pencil's (y,z) block and run the r2c x-FFTs
	// (half the complex plan's work on real input).
	min1 := work.Counters{
		RecipPoints: geo.pencilPts[me],
		FFTOps:      yW2 * zW3 * geo.opsX / 2,
	}
	w.r.ComputeWork(min1)
	w.c.AlltoallvSparse(geo.sizesT1F)
	// Stage 2: y-FFTs on the x-spectrum pencils.
	min2 := work.Counters{
		Other:  xsW * int64(k2) * zW3,
		FFTOps: xsW * zW3 * geo.opsY,
	}
	w.r.ComputeWork(min2)
	w.c.AlltoallvSparse(geo.sizesT2F)
	// Stage 3: z-FFTs, influence multiply + energy, inverse z-FFTs.
	min3 := work.Counters{
		Other:       xsW * ysW * int64(k3),
		FFTOps:      2 * xsW * ysW * geo.opsZ,
		RecipPoints: xsW * ysW * int64(k3),
	}
	w.r.ComputeWork(min3)
	w.c.AlltoallvSparse(geo.sizesT2B)
	// Inverse stage 2.
	min4 := work.Counters{
		Other:  xsW * int64(k2) * zW3,
		FFTOps: xsW * zW3 * geo.opsY,
	}
	w.r.ComputeWork(min4)
	w.c.AlltoallvSparse(geo.sizesT1B)
	// Inverse stage 1 (c2r x-FFTs back to the real grid).
	min5 := work.Counters{
		Other:  int64(k1) * yW2 * zW3,
		FFTOps: yW2 * zW3 * geo.opsX / 2,
	}
	w.r.ComputeWork(min5)
	// Return the convolved potential cells to the domains.
	w.c.AlltoallvSparse(geo.sizesGath)
	// Interpolate forces for owned atoms + owned exclusion corrections.
	min6 := work.Counters{
		Other:       geo.domainPts[me],
		GridCharges: nOwn * o3,
		PairEvals:   cnt.excl[me],
	}
	w.r.ComputeWork(min6)
	// Exclusion corrections touch halo atoms too: return those partial
	// forces, then merge the reciprocal energy scalars.
	w.c.AlltoallvSparse(ep.frcRetSizes)
	w.c.Allreduce(64, 0)
	if st != nil {
		st.PME = trP.sample()
	}
	return cs.rep
}
