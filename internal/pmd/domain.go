package pmd

import (
	"sync"
	"unsafe"

	"repro/internal/fft"
	"repro/internal/kernels"
	"repro/internal/md"
	"repro/internal/mpi"
	"repro/internal/topol"
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
	// not travel). Each backward matrix is its forward one transposed and
	// shares its storage.
	sizesAssm *mpi.Sparse // domain grid contribution → stage-1 pencils
	sizesGath *mpi.Sparse // convolved potential back → domains
	sizesT1F  *mpi.Sparse // transpose 1 forward, within pencil columns
	sizesT1B  *mpi.Sparse
	sizesT2F  *mpi.Sparse // transpose 2 forward, within pencil rows
	sizesT2B  *mpi.Sparse

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

	// Grid assembly / potential gather between domains and pencils: the
	// grid points of domain d's footprint in stage-1 pencil q = a·p3 + b,
	// k1 times its y overlap with block a times its z overlap with block
	// b. A footprint's y (z) interval depends only on the domain's y (z)
	// grid index, so each axis overlap is evaluated once, and a domain
	// visits only the pencils both of its overlaps reach.
	ovY := make([]int, g.dy*g.p2)
	for iy := 0; iy < g.dy; iy++ {
		lo, n := cellFootprint(iy, g.dy, k2, order)
		for a := 0; a < g.p2; a++ {
			ovY[iy*g.p2+a] = wrapOverlap(lo, n, k2, g.yOff2[a], g.yOff2[a+1])
		}
	}
	ovZ := make([]int, g.dz*g.p3)
	for iz := 0; iz < g.dz; iz++ {
		lo, n := cellFootprint(iz, g.dz, k3, order)
		for b := 0; b < g.p3; b++ {
			ovZ[iz*g.p3+b] = wrapOverlap(lo, n, k3, g.zOff3[b], g.zOff3[b+1])
		}
	}
	overlaps := func(visit func(d, q, pts int)) {
		for d := 0; d < p; d++ {
			_, iy, iz := g.domainCoords(d)
			for a, oy := range ovY[iy*g.p2 : (iy+1)*g.p2] {
				if oy == 0 {
					continue
				}
				for b, oz := range ovZ[iz*g.p3 : (iz+1)*g.p3] {
					if oz != 0 {
						visit(d, a*g.p3+b, k1*oy*oz)
					}
				}
			}
		}
	}
	g.pencilPts = make([]int64, p)
	overlaps(func(_, q, pts int) { g.pencilPts[q] += int64(pts) })
	g.sizesAssm = mpi.NewSparse(p, func(add func(d, q, bytes int)) {
		overlaps(func(d, q, pts int) {
			if d != q {
				add(d, q, bytesPerRealPoint*pts)
			}
		})
	})
	g.sizesGath = g.sizesAssm.T()

	// Pencil transposes: personalized all-to-alls within pencil columns
	// (same z-block: x-spectrum ↔ y re-split) and rows (same x-spectrum
	// block: y ↔ z re-split) on the half-spectrum grid.
	g.sizesT1F = mpi.NewSparse(p, func(add func(q, q2, bytes int)) {
		for q := 0; q < p; q++ {
			a, b := q/g.p3, q%g.p3
			zW := g.zOff3[b+1] - g.zOff3[b]
			for a2 := 0; a2 < g.p2; a2++ {
				if q2 := a2*g.p3 + b; q2 != q {
					add(q, q2, bytesPerPoint*(g.xsOff[a2+1]-g.xsOff[a2])*(g.yOff2[a+1]-g.yOff2[a])*zW)
				}
			}
		}
	})
	g.sizesT1B = g.sizesT1F.T()
	g.sizesT2F = mpi.NewSparse(p, func(add func(q, q2, bytes int)) {
		for q := 0; q < p; q++ {
			a, b := q/g.p3, q%g.p3
			zW := g.zOff3[b+1] - g.zOff3[b]
			for b2 := 0; b2 < g.p3; b2++ {
				if q2 := a*g.p3 + b2; q2 != q {
					add(q, q2, bytesPerPoint*(g.xsOff[a+1]-g.xsOff[a])*(g.ysOff[b2+1]-g.ysOff[b2])*zW)
				}
			}
		}
	})
	g.sizesT2B = g.sizesT2F.T()
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

// epochData is the ownership-dependent state of one neighbour-list epoch:
// the owner map, per-domain work counts and the halo-exchange size
// matrices. Ownership is fixed between list rebuilds (atoms migrate at
// rebuilds), so these matrices are static within an epoch.
type epochData struct {
	own  []int32
	nOwn []int

	counts epochCounts

	// haloSizes: domain i ships all its owned atoms to each half-shell
	// neighbour j > i (the importer computes the shared pairs and returns
	// forces: frcRetSizes is the transpose).
	haloSizes   *mpi.Sparse
	frcRetSizes *mpi.Sparse

	// migration is the atom-migration all-to-all that started the epoch:
	// nil for a run's first, filled by the domain view for the others.
	migration *mpi.Sparse
}

// epochCounts are the per-domain owner-computes work counts, produced by
// one shared scan per epoch (scanning p times per rank would itself be a
// serial bottleneck at high p).
type epochCounts struct {
	bonds, angles, dihs, imprs []int64
	p14, pairs, excl           []int64
}

// domainView is the domain decomposition's reading of a tape's trajectory
// at rank count p: the geometry and the ownership epoch of each
// neighbour-list generation, each built on first request under one mutex,
// so the view serves every domain run at its rank count, concurrent ones
// included.
type domainView struct {
	t      *Tape // the tape of v's trajectory, which counts its bytes and keeps its epochs
	mu     sync.Mutex
	geo    *domainGeometry
	epochs []*epochData // by list generation
}

// geometry returns the view's geometry, built on first request. It needs
// no snapshot, so a rank asks for it before it waits for a step's list.
func (v *domainView) geometry(p int, cfg Config) *domainGeometry {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.geo == nil {
		v.geo = newDomainGeometry(p, cfg)
		v.t.bytes.Add(4 * sparseBytes(p)) // the assembly, gather and two transpose matrices
	}
	return v.geo
}

// epoch returns the ownership epoch of st's list generation. Ranks request
// generations in step order, after the geometry, so a missing one is the
// next, and never lag the newest by more than one.
func (v *domainView) epoch(cfg Config, st *snapshot) *epochData {
	v.mu.Lock()
	defer v.mu.Unlock()
	if k := len(v.epochs); st.listGen == k {
		ep := buildEpoch(v.geo, cfg.System, st)
		if k > 0 {
			ep.migration = v.geo.migrationSizes(v.epochs[k-1], ep).Named("migration")
		}
		v.epochs = append(v.epochs, ep)
		v.t.bytes.Add(ep.bytes())
		if old, ok := v.t.stale(k); ok && old >= 0 {
			v.epochs[old] = nil
		}
	}
	return v.epochs[st.listGen]
}

// bytes is what ep holds: the ownership, the per-domain counts, and the
// halo and migration matrices at their capacity.
func (ep *epochData) bytes() int64 {
	p := len(ep.nOwn)
	return int64(unsafe.Sizeof(*ep)) + 4*int64(len(ep.own)) + 8*8*int64(p) + 2*sparseBytes(p) // nOwn and the seven count arrays: 8 of p words
}

// sparseBytes bounds a p×p size matrix: a rank stores at most p−1
// entries of three int32 each, and the row offsets add p+1 more.
func sparseBytes(p int) int64 { return 4*int64(p+1) + 12*int64(p)*int64(p-1) }

// buildEpoch assigns ownership from the list-origin positions of st's
// generation (the positions at rebuild time — the same input on every rank
// and on restart) and scans the topology + its pair list once for
// per-domain counts.
func buildEpoch(g *domainGeometry, sys *topol.System, st *snapshot) *epochData {
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
	for _, pr := range st.pairs {
		cnt.pairs[max(own[pr.I], own[pr.J])]++
	}
	for i := 0; i < n; i++ {
		for _, j := range sys.Excl.Of(int(i)) {
			if int(j) > i {
				cnt.excl[max(own[i], own[j])]++
			}
		}
	}

	ep.haloSizes = g.haloMatrix(ep.nOwn).Named("halo")
	ep.frcRetSizes = ep.haloSizes.T()
	return ep
}

// haloMatrix is the half-shell halo exchange of an epoch whose domains own
// nOwn atoms: each domain ships them to every coupled neighbour above it.
func (g *domainGeometry) haloMatrix(nOwn []int) *mpi.Sparse {
	return mpi.NewSparse(g.p, func(add func(i, j, bytes int)) {
		for i, nbrs := range g.nbrs {
			for _, j := range nbrs {
				if j > i {
					add(i, j, bytesPerCoord*nOwn[i])
				}
			}
		}
	})
}

// migrationSizes is the atom-migration all-to-all at a rebuild: each atom
// whose owner changed moves with position + velocity.
func (g *domainGeometry) migrationSizes(old, neu *epochData) *mpi.Sparse {
	return mpi.NewSparse(g.p, func(add func(i, j, bytes int)) {
		for i := range neu.own {
			if old.own[i] != neu.own[i] {
				add(int(old.own[i]), int(neu.own[i]), 2*bytesPerCoord)
			}
		}
	})
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
// values come from the states of the run's tape, and every
// ownership-dependent size from the tape's domain view of them; the
// rank's own segments and sparse collectives charge the virtual time of
// the spatial pipeline, the same whichever run evaluated a step: drift of
// owned atoms, migration + half-shell halo exchange, owner-computes
// classic terms with force return, and the 2-D pencil PME (assemble →
// r2c x-FFTs → transpose → y-FFTs → transpose → z-FFTs + influence → the
// inverse chain → potential gather → interpolation).
type domainDecomp struct {
	geo *domainGeometry
	ep  *epochData // the ownership epoch of the rank's current snapshot
}

// serve makes step's snapshot the rank's current one. It waits only for
// the snapshot's list generation, which is all the rank reads until forces
// returns the step's energies, and builds the geometry, which needs no
// snapshot, before it waits.
func (d *domainDecomp) serve(w *worker, step int) {
	d.geo = w.sh.dom.geometry(w.p, w.cfg)
	w.cur = w.sh.tape.list(step)
	d.ep = w.sh.dom.epoch(w.cfg, w.cur)
}

func (d *domainDecomp) initialForces(w *worker) {
	// The zero-cost charge after the lookup keeps the domain schedule's
	// step-0 event, which the schedule goldens pin; the pipeline segments
	// below charge the spatial model's work. The charge is the same whether
	// this run or an earlier one evaluated the snapshot, so the schedule is.
	d.serve(w, -1)
	w.r.ComputeWork(work.Counters{})
	d.forces(w, nil, phaseTracker{})
}

func (d *domainDecomp) drift(w *worker, step int) {
	nOwn := int64(d.ep.nOwn[w.me()]) // the previous step's owners move their atoms
	d.serve(w, step)
	w.r.ComputeWork(work.Counters{Integrate: nOwn})
	// On a rebuild step, migrate atoms to their new owners; then exchange
	// the half-shell halo (each domain ships its owned atoms to every
	// higher-id coupled neighbour).
	if w.cur.rebuilt {
		w.c.AlltoallvSparse(d.ep.migration)
	}
	w.c.AlltoallvSparse(d.ep.haloSizes)
}

func (d *domainDecomp) kick(w *worker) {
	w.r.ComputeWork(work.Counters{Integrate: int64(d.ep.nOwn[w.me()])})
	w.c.Barrier()
}

// forces charges the classic + pencil-PME pipeline of one evaluation.
// When st is non-nil it closes the classic sample with tr and fills the
// PME sample.
func (d *domainDecomp) forces(w *worker, st *StepTiming, tr phaseTracker) md.EnergyReport {
	cs := w.cur
	geo := d.geo
	me := w.me()
	ep := d.ep
	cnt := &ep.counts
	pmeCfg := w.cfg.MD.PME
	k1, k2, k3 := pmeCfg.K1, pmeCfg.K2, pmeCfg.K3
	o3 := int64(pmeCfg.Order) * int64(pmeCfg.Order) * int64(pmeCfg.Order)
	nOwn := int64(ep.nOwn[me])

	// Owner-computes classic terms over the domain's cell lists. On a
	// rebuild step the rank charges its share of the distributed list
	// search, like the replicated path.
	classic := work.Counters{
		BondTerms:     cnt.bonds[me],
		AngleTerms:    cnt.angles[me],
		DihedralTerms: cnt.dihs[me] + cnt.imprs[me],
		PairEvals:     cnt.pairs[me] + cnt.p14[me],
	}
	if cs.rebuilt {
		classic.ListDistEvals = cs.distEvals / int64(w.p)
	}
	w.r.ComputeWork(classic)

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
	w.r.ComputeWork(work.Counters{GridCharges: nOwn * o3})
	// Ship the contributions to the stage-1 pencil owners.
	w.c.AlltoallvSparse(geo.sizesAssm)
	// Stage 1: assemble the pencil's (y,z) block and run the r2c x-FFTs
	// (half the complex plan's work on real input).
	w.r.ComputeWork(work.Counters{
		RecipPoints: geo.pencilPts[me],
		FFTOps:      yW2 * zW3 * geo.opsX / 2,
	})
	w.c.AlltoallvSparse(geo.sizesT1F)
	// Stage 2: y-FFTs on the x-spectrum pencils.
	w.r.ComputeWork(work.Counters{
		Other:  xsW * int64(k2) * zW3,
		FFTOps: xsW * zW3 * geo.opsY,
	})
	w.c.AlltoallvSparse(geo.sizesT2F)
	// Stage 3: z-FFTs, influence multiply + energy, inverse z-FFTs.
	w.r.ComputeWork(work.Counters{
		Other:       xsW * ysW * int64(k3),
		FFTOps:      2 * xsW * ysW * geo.opsZ,
		RecipPoints: xsW * ysW * int64(k3),
	})
	w.c.AlltoallvSparse(geo.sizesT2B)
	// Inverse stage 2.
	w.r.ComputeWork(work.Counters{
		Other:  xsW * int64(k2) * zW3,
		FFTOps: xsW * zW3 * geo.opsY,
	})
	w.c.AlltoallvSparse(geo.sizesT1B)
	// Inverse stage 1 (c2r x-FFTs back to the real grid).
	w.r.ComputeWork(work.Counters{
		Other:  int64(k1) * yW2 * zW3,
		FFTOps: yW2 * zW3 * geo.opsX / 2,
	})
	// Return the convolved potential cells to the domains.
	w.c.AlltoallvSparse(geo.sizesGath)
	// Interpolate forces for owned atoms + owned exclusion corrections.
	w.r.ComputeWork(work.Counters{
		Other:       geo.domainPts[me],
		GridCharges: nOwn * o3,
		PairEvals:   cnt.excl[me],
	})
	// Exclusion corrections touch halo atoms too: return those partial
	// forces, then merge the reciprocal energy scalars.
	w.c.AlltoallvSparse(ep.frcRetSizes)
	w.c.Allreduce(64, 0)
	if st != nil {
		st.PME = trP.sample()
	}
	return cs.energies()
}
