package pmd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/ewald"
	"repro/internal/ff"
	"repro/internal/fft"
	"repro/internal/md"
	"repro/internal/mpi"
	"repro/internal/space"
	"repro/internal/topol"
	"repro/internal/vec"
	"repro/internal/work"
)

// haloWater is the water box of the halo tests with a thin list skin, so
// twelve steps cross list rebuilds and the epochs after atoms migrate.
func haloWater() (*topol.System, md.Config) {
	mdc := testMDConfig()
	mdc.FF.ListCutoff = mdc.FF.CutOff + 0.5
	return testSystem(300, 30, 1), mdc
}

var paperSystem = sync.OnceValue(func() *topol.System {
	// The paper's system, built and relaxed as figures.NewSuite does.
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	md.Relax(sys, 80)
	return sys
})

func paperMD() md.Config {
	mdc := md.PMEDefaultConfig()
	mdc.Temperature = 300
	return mdc
}

// walkEpochs evaluates the first steps+1 states of a private tape over
// sys and calls fn once per list generation, on the state that starts it,
// with the epoch buildEpoch derives from that state at rank count p. A
// run of steps > 0 must cross a rebuild.
func walkEpochs(t *testing.T, name string, sys *topol.System, mdc md.Config, steps, p int,
	fn func(st *snapshot, ep *epochData)) (epochs int) {
	t.Helper()
	cfg := Config{System: sys, MD: mdc, Steps: steps, Decomp: DecompDomain}
	geo := newDomainGeometry(p, cfg)
	tape, err := NewTape().open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := -1; s < steps; s++ {
		st := tape.lookup(s, false)
		if tape.eval(st, cfg); st.listGen == epochs {
			fn(st, buildEpoch(geo, sys, st))
			epochs++
		}
	}
	if steps > 0 && epochs < 2 {
		t.Fatalf("%s p=%d: %d epoch in %d steps, want a rebuild", name, p, epochs, steps)
	}
	return epochs
}

// ownerComputes calls term for every owner-computes term of st's list
// generation with the atoms it reads and the domain that computes it: the
// domain owning the highest-numbered owner among the term's atoms, which
// holds every remote atom of the term in its half-shell halo.
func ownerComputes(sys *topol.System, st *snapshot, ep *epochData, term func(kind string, d int32, atoms ...int32)) {
	at := func(kind string, atoms ...int32) {
		d := ep.own[atoms[0]]
		for _, a := range atoms[1:] {
			d = max(d, ep.own[a])
		}
		term(kind, d, atoms...)
	}
	for _, pr := range st.pairs {
		at("pair", pr.I, pr.J)
	}
	for _, b := range sys.Bonds {
		at("bond", b[:]...)
	}
	for _, a := range sys.Angles {
		at("angle", a[:]...)
	}
	for _, dh := range sys.Dihedrals {
		at("dihedral", dh[:]...)
	}
	for _, im := range sys.Impropers {
		at("improper", im[:]...)
	}
	for _, pr := range sys.Pairs14 {
		at("1-4 pair", pr[:]...)
	}
	for i := 0; i < sys.N(); i++ {
		for _, j := range sys.Excl.Of(i) {
			if int(j) > i {
				at("excluded pair", int32(i), j)
			}
		}
	}
}

// haloCover checks one ownership epoch against the owner-computes rule
// buildEpoch counts by: every atom of a term must be owned by the domain
// that computes it or by one whose haloSizes row ships to it. It returns
// the bytes the model charges (the sum of haloSizes) and the bytes each
// (exporter, importer) pair needs to move: 24 B per distinct atom the
// importer's terms read from the exporter.
func haloCover(t *testing.T, sys *topol.System, st *snapshot, ep *epochData) (charged int, needed [][]int) {
	t.Helper()
	n := int64(sys.N())
	imports := map[int64]bool{} // computing domain · N + imported atom
	halo := denseOf(len(ep.nOwn), ep.haloSizes)
	needed = zeroMatrix(len(ep.nOwn))
	ownerComputes(sys, st, ep, func(kind string, d int32, atoms ...int32) {
		for _, a := range atoms {
			o := ep.own[a]
			if o == d {
				continue
			}
			if halo[o][d] == 0 {
				t.Fatalf("%s %v: domain %d computes it, but atom %d's owner %d ships no halo to it", kind, atoms, d, a, o)
			}
			if k := int64(d)*n + int64(a); !imports[k] {
				imports[k] = true
				needed[o][d] += bytesPerCoord
			}
		}
	})
	return sum(halo), needed
}

func zeroMatrix(p int) [][]int {
	m := make([][]int, p)
	for i := range m {
		m[i] = make([]int, p)
	}
	return m
}

// denseOf returns the p-rank size matrix m as sizes[i][j], the bytes rank
// i sends rank j, through the walk the communication log reads it by.
func denseOf(p int, m *mpi.Sparse) [][]int {
	d := zeroMatrix(p)
	m.Each(func(src, dst, bytes int) { d[src][dst] = bytes })
	return d
}

func sum(m [][]int) (s int) {
	for _, row := range m {
		for _, v := range row {
			s += v
		}
	}
	return s
}

// TestDomainHaloCoversEveryTerm: no domain computes a term with an atom
// outside its own block and the halo it is charged for, in every epoch of
// the tape's trajectory (the spans between neighbour-list rebuilds, so
// the epochs after atoms migrate too), at prime, composite and power-of-two
// rank counts up to the ceiling's p = 1024. Each p logs the halo bytes the
// model charges against the bytes the domains need.
func TestDomainHaloCoversEveryTerm(t *testing.T) {
	cover := func(name string, sys *topol.System, mdc md.Config, steps int, ps []int) {
		for _, p := range ps {
			charged, needed := 0, 0
			epochs := walkEpochs(t, name, sys, mdc, steps, p, func(st *snapshot, ep *epochData) {
				ch, ne := haloCover(t, sys, st, ep)
				charged, needed = charged+ch, needed+sum(ne)
			})
			t.Logf("%s p=%d, epochs %d: halo charged %d B, needed %d B, ratio %.2f",
				name, p, epochs, charged, needed, float64(charged)/float64(needed))
		}
	}
	sys, mdc := haloWater()
	cover("water", sys, mdc, 12, []int{2, 3, 5, 7, 8, 16, 27, 64})
	// The paper's system at the ceiling's domain rank counts; its initial
	// epoch only.
	cover("myoglobin", paperSystem(), paperMD(), 0, []int{8, 64, 256, 1024})
}

// TestDomainHaloForcesOracle executes the halo exchange the domain
// pipeline charges. On every epoch of TestDomainHaloCoversEveryTerm's
// water matrix, and the paper system's initial epoch at p = 8 and 64,
// each domain copies in its owned atoms and only the remote atoms its
// owner-computes terms read, each from a domain whose haloSizes row ships
// to it. It evaluates its pairs, bonded terms, 1-4 pairs and exclusion
// corrections on those local arrays and returns the partial forces of
// imported atoms along frcRetSizes. Its executed terms must be the counts
// its pipeline charges, the returned forces and the domains' energies must
// match the same terms summed over the full arrays at the
// snapshot's positions to 1e-10 relative, and the bytes each (exporter,
// importer) pair copied must equal haloCover's needed count.
func TestDomainHaloForcesOracle(t *testing.T) {
	oracle := func(name string, sys *topol.System, mdc md.Config, steps int, ps []int) {
		for _, p := range ps {
			walkEpochs(t, name, sys, mdc, steps, p, func(st *snapshot, ep *epochData) {
				haloOracle(t, sys, mdc, st, ep)
			})
		}
	}
	sys, mdc := haloWater()
	oracle("water", sys, mdc, 12, []int{2, 3, 5, 7, 8, 16, 27, 64})
	oracle("myoglobin", paperSystem(), paperMD(), 0, []int{8, 64})
}

// localDomain is one domain's copy of the atoms and terms it computes, in
// local indices: its owned atoms first, then the imported ones.
type localDomain struct {
	glob []int32         // local → global atom
	loc  map[int32]int32 // global → local
	sys  topol.System
	prs  []space.Pair
	excl [][2]int32
}

func (l *localDomain) add(g int32) int32 {
	if k, ok := l.loc[g]; ok {
		return k
	}
	k := int32(len(l.glob))
	l.loc[g] = k
	l.glob = append(l.glob, g)
	return k
}

// haloOracle runs the oracle of TestDomainHaloForcesOracle on one epoch.
func haloOracle(t *testing.T, sys *topol.System, mdc md.Config, st *snapshot, ep *epochData) {
	t.Helper()
	p, pos := len(ep.nOwn), st.pos
	beta := mdc.PME.Beta
	f := ff.New(sys, mdc.FF, beta)

	// Reference: every term over the full arrays.
	want := make([]vec.V, sys.N())
	eWant := f.Bonded(pos, want, nil)
	eWant.Add(f.Nonbonded(pos, st.pairs, want, nil))
	eWant.Add(f.Pairs14(pos, want, nil))
	exWant := ewald.ExclusionCorrection(sys.Box, pos, f.Charges(), sys.Excl, beta, want, nil)

	// Owned atoms first, then the halo each domain's terms import.
	doms := make([]localDomain, p)
	for d := range doms {
		doms[d] = localDomain{loc: map[int32]int32{}, sys: topol.System{Box: sys.Box, Types: sys.Types}}
	}
	for i, d := range ep.own {
		doms[d].add(int32(i))
	}
	halo, frcRet := denseOf(p, ep.haloSizes), denseOf(p, ep.frcRetSizes)
	copied := zeroMatrix(p)
	ownerComputes(sys, st, ep, func(kind string, d int32, atoms ...int32) {
		l := &doms[d]
		var ix [4]int32
		for k, a := range atoms {
			if o := ep.own[a]; o != d {
				if _, ok := l.loc[a]; !ok {
					if halo[o][d] == 0 {
						t.Fatalf("%s %v: domain %d imports atom %d from %d, which ships it no halo", kind, atoms, d, a, o)
					}
					copied[o][d] += bytesPerCoord
				}
			}
			ix[k] = l.add(a)
		}
		switch kind {
		case "pair":
			l.prs = append(l.prs, space.Pair{I: ix[0], J: ix[1]})
		case "bond":
			l.sys.Bonds = append(l.sys.Bonds, [2]int32{ix[0], ix[1]})
		case "angle":
			l.sys.Angles = append(l.sys.Angles, [3]int32{ix[0], ix[1], ix[2]})
		case "dihedral":
			l.sys.Dihedrals = append(l.sys.Dihedrals, ix)
		case "improper":
			l.sys.Impropers = append(l.sys.Impropers, ix)
		case "1-4 pair":
			l.sys.Pairs14 = append(l.sys.Pairs14, [2]int32{ix[0], ix[1]})
		case "excluded pair":
			l.excl = append(l.excl, [2]int32{ix[0], ix[1]})
		}
	})
	if _, needed := haloCover(t, sys, st, ep); !reflect.DeepEqual(copied, needed) {
		t.Fatalf("p=%d gen %d: halo bytes copied per pair differ from the needed count", p, st.listGen)
	}

	// Each domain evaluates its terms on its local arrays; owned forces
	// land in place, imported atoms' return to their owners.
	got := make([]vec.V, sys.N())
	var eGot ff.Energies
	var exGot float64
	for d := range doms {
		l := &doms[d]
		n := len(l.glob)
		l.sys.Atoms = make([]topol.Atom, n)
		lpos := make([]vec.V, n)
		for k, g := range l.glob {
			l.sys.Atoms[k], lpos[k] = sys.Atoms[g], pos[g]
		}
		sets := make([][]int32, n)
		for _, e := range l.excl {
			sets[e[0]] = append(sets[e[0]], e[1])
			sets[e[1]] = append(sets[e[1]], e[0])
		}
		l.sys.Excl = topol.NewExclusions(sets)
		lff := ff.New(&l.sys, mdc.FF, beta)
		frc := make([]vec.V, n)
		var classic, excl work.Counters
		eGot.Add(lff.Bonded(lpos, frc, &classic))
		eGot.Add(lff.Nonbonded(lpos, l.prs, frc, &classic))
		eGot.Add(lff.Pairs14(lpos, frc, &classic))
		exGot += ewald.ExclusionCorrection(sys.Box, lpos, lff.Charges(), l.sys.Excl, beta, frc, &excl)
		// What the domain executed is what its pipeline charges.
		cnt := &ep.counts
		if classic != (work.Counters{BondTerms: cnt.bonds[d], AngleTerms: cnt.angles[d], DihedralTerms: cnt.dihs[d] + cnt.imprs[d],
			PairEvals: cnt.pairs[d] + cnt.p14[d]}) || excl.PairEvals != cnt.excl[d] {
			t.Fatalf("p=%d gen %d: domain %d executed %+v and %d exclusions, the epoch counts differ", p, st.listGen, d, classic, excl.PairEvals)
		}
		for k, g := range l.glob {
			if o := ep.own[g]; o != int32(d) && frcRet[d][o] == 0 {
				t.Fatalf("p=%d: domain %d holds a partial force of atom %d but returns none to its owner %d", p, d, g, o)
			}
			got[g] = got[g].Add(frc[k])
		}
	}

	scale := 0.0
	for _, f := range want {
		scale = max(scale, f.Norm())
	}
	if d := vec.MaxNormDiff(got, want); d > 1e-10*scale {
		t.Fatalf("p=%d gen %d: domain forces deviate by %g (largest force %g)", p, st.listGen, d, scale)
	}
	for _, e := range []struct {
		name      string
		got, want float64
	}{
		{"bond", eGot.Bond, eWant.Bond}, {"angle", eGot.Angle, eWant.Angle},
		{"dihedral", eGot.Dihedral, eWant.Dihedral}, {"improper", eGot.Improper, eWant.Improper},
		{"LJ", eGot.LJ, eWant.LJ}, {"elec", eGot.Elec, eWant.Elec},
		{"LJ 1-4", eGot.LJ14, eWant.LJ14}, {"elec 1-4", eGot.Elec14, eWant.Elec14},
		{"exclusion", exGot, exWant},
	} {
		if math.Abs(e.got-e.want) > 1e-10*math.Abs(e.want) {
			t.Fatalf("p=%d gen %d: %s energy %.17g, full arrays %.17g", p, st.listGen, e.name, e.got, e.want)
		}
	}
}

// TestDomainPencilFFTOracle executes the pencil FFT the domain pipeline
// charges: one 3-D FFT of the paper's 80×36×48 mesh and its inverse,
// through the pencil blocks of every rank count up to 64 that
// ValidateDecomp accepts and of 256 and 1024. Stage-1 pencil q = (a, b)
// r2c-transforms the x-lines of yOff2[a] × zOff3[b]; transpose 1 hands
// each pencil the xsOff[a] × zOff3[b] y-lines it transforms next,
// transpose 2 the xsOff[a] × ysOff[b] z-lines, and the inverse goes back
// the same way. A transpose copies the overlap of what each pencil holds
// with what each pencil reads, so the pairs that exchange nothing are
// found, not assumed. The gathered spectrum must equal RealPlan3D's to
// 1e-12 relative and the round trip the input, the bytes each pair copied
// must equal the size matrices the transposes charge, zeros included,
// and the lines each rank transformed the counts it charges FFTOps for.
func TestDomainPencilFFTOracle(t *testing.T) {
	mdc := paperMD()
	k1, k2, k3 := mdc.PME.K1, mdc.PME.K2, mdc.PME.K3
	rng := rand.New(rand.NewSource(1))
	grid := make([]float64, k1*k2*k3)
	for i := range grid {
		grid[i] = rng.Float64() - 0.5
	}
	plan, err := fft.NewRealPlan3D(k1, k2, k3)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, plan.SpectrumLen())
	plan.Forward(grid, want)
	var ps []int
	for p := 1; p <= 64; p++ {
		if ValidateDecomp(DecompDomain, p, mdc.PME) == nil {
			ps = append(ps, p)
		}
	}
	for _, p := range append(ps, 256, 1024) {
		if err := ValidateDecomp(DecompDomain, p, mdc.PME); err != nil {
			t.Fatal(err)
		}
		pencilOracle(t, newDomainGeometry(p, Config{System: paperSystem(), MD: mdc}), mdc.PME, grid, want)
	}
}

// block is a box of mesh indices, [lo, hi) along x (or kx), y (or ky) and
// z, stored row-major.
type block struct{ lo, hi [3]int }

func (b block) n(d int) int { return b.hi[d] - b.lo[d] }
func (b block) size() int   { return b.n(0) * b.n(1) * b.n(2) }
func (b block) at(i, j, k int) int {
	return ((i-b.lo[0])*b.n(1)+j-b.lo[1])*b.n(2) + k - b.lo[2]
}

// transpose gives each pencil q2 its to-block, copied from the from-blocks
// that overlap it, and returns the bytes each pair q ≠ q2 copied.
func transpose(t *testing.T, from, to []block, data [][]complex128) ([][]complex128, [][]int) {
	t.Helper()
	out, moved := make([][]complex128, len(to)), zeroMatrix(len(to))
	for q2, dst := range to {
		out[q2] = make([]complex128, dst.size())
		filled := 0
		for q, src := range from {
			var ov block
			for d := range 3 {
				ov.lo[d], ov.hi[d] = max(src.lo[d], dst.lo[d]), min(src.hi[d], dst.hi[d])
			}
			if ov.n(0) <= 0 || ov.n(1) <= 0 || ov.n(2) <= 0 {
				continue
			}
			for i := ov.lo[0]; i < ov.hi[0]; i++ {
				for j := ov.lo[1]; j < ov.hi[1]; j++ {
					s, d := src.at(i, j, ov.lo[2]), dst.at(i, j, ov.lo[2])
					copy(out[q2][d:d+ov.n(2)], data[q][s:s+ov.n(2)])
				}
			}
			filled += ov.size()
			if q != q2 {
				moved[q][q2] += bytesPerPoint * ov.size()
			}
		}
		if filled != dst.size() {
			t.Fatalf("pencil %d assembled %d of its %d points", q2, filled, dst.size())
		}
	}
	return out, moved
}

// strided transforms count adjacent strided lines of x in place with
// plan, an n×1 plan: line c is x[base+c+j·stride] for j = 0..n−1.
func strided(plan *fft.Plan2D, n int, x []complex128, base, stride, count int, inverse bool) {
	line := make([]complex128, n)
	for c := range count {
		for j := range line {
			line[j] = x[base+c+j*stride]
		}
		if inverse {
			plan.Inverse(line)
		} else {
			plan.Forward(line)
		}
		for j, v := range line {
			x[base+c+j*stride] = v
		}
	}
}

// pencilOracle runs TestDomainPencilFFTOracle at geo's rank count.
func pencilOracle(t *testing.T, geo *domainGeometry, pme md.PMEConfig, grid []float64, want []complex128) {
	t.Helper()
	p, k1, k2, k3, h1 := geo.p, pme.K1, pme.K2, pme.K3, geo.h1
	rx, py, pz := fft.NewRealPlan(k1), fft.NewPlan2D(k2, 1), fft.NewPlan2D(k3, 1)
	s1, s2, s3 := make([]block, p), make([]block, p), make([]block, p)
	lines := make([][3]int, p) // per stage, forward and inverse
	data := make([][]complex128, p)
	for q := range p {
		a, b := q/geo.p3, q%geo.p3
		s1[q] = block{[3]int{0, geo.yOff2[a], geo.zOff3[b]}, [3]int{h1, geo.yOff2[a+1], geo.zOff3[b+1]}}
		s2[q] = block{[3]int{geo.xsOff[a], 0, geo.zOff3[b]}, [3]int{geo.xsOff[a+1], k2, geo.zOff3[b+1]}}
		s3[q] = block{[3]int{geo.xsOff[a], geo.ysOff[b], 0}, [3]int{geo.xsOff[a+1], geo.ysOff[b+1], k3}}

		// Stage 1: the pencil's real x-lines, r2c.
		plane := s1[q].n(1) * s1[q].n(2)
		x := make([]float64, k1*plane)
		for i := range k1 {
			for j := s1[q].lo[1]; j < s1[q].hi[1]; j++ {
				for k := s1[q].lo[2]; k < s1[q].hi[2]; k++ {
					x[s1[q].at(i, j, k)] = grid[(i*k2+j)*k3+k]
				}
			}
		}
		data[q] = make([]complex128, s1[q].size())
		rx.ForwardLines(x, data[q], 0, plane, plane)
		lines[q][0] += plane
	}
	// yLines and zLines transform a pencil's y- or z-lines in place and
	// count them.
	yLines := func(q int, inverse bool) {
		b, n := s2[q], s2[q].n(2)
		for i := range b.n(0) {
			strided(py, k2, data[q], i*k2*n, n, n, inverse)
		}
		lines[q][1] += b.n(0) * n
	}
	zLines := func(q int, inverse bool) {
		for l := range s3[q].size() / k3 {
			strided(pz, k3, data[q], l*k3, 1, 1, inverse)
			lines[q][2]++
		}
	}

	var t1f, t2f, t2b, t1b [][]int
	data, t1f = transpose(t, s1, s2, data)
	for q := range p {
		yLines(q, false)
	}
	data, t2f = transpose(t, s2, s3, data)
	got := make([]complex128, len(want))
	for q := range p {
		zLines(q, false)
		b := s3[q]
		for i := b.lo[0]; i < b.hi[0]; i++ {
			for j := b.lo[1]; j < b.hi[1]; j++ {
				copy(got[(i*k2+j)*k3:][:k3], data[q][b.at(i, j, 0):][:k3])
			}
		}
		zLines(q, true)
	}
	data, t2b = transpose(t, s3, s2, data)
	for q := range p {
		yLines(q, true)
	}
	data, t1b = transpose(t, s2, s1, data)
	back := make([]float64, len(grid))
	for q := range p {
		plane := s1[q].n(1) * s1[q].n(2)
		x := make([]float64, k1*plane)
		rx.InverseLines(data[q], x, 0, plane, plane)
		lines[q][0] += plane
		for i := range k1 {
			for j := s1[q].lo[1]; j < s1[q].hi[1]; j++ {
				for k := s1[q].lo[2]; k < s1[q].hi[2]; k++ {
					back[(i*k2+j)*k3+k] = x[s1[q].at(i, j, k)]
				}
			}
		}
	}

	var dSpec, sSpec, dGrid, sGrid float64
	for i, w := range want {
		dSpec, sSpec = max(dSpec, cmplx.Abs(got[i]-w)), max(sSpec, cmplx.Abs(w))
	}
	for i, g := range grid {
		dGrid, sGrid = max(dGrid, math.Abs(back[i]-g)), max(sGrid, math.Abs(g))
	}
	if dSpec > 1e-12*sSpec || dGrid > 1e-12*sGrid {
		t.Fatalf("p=%d: spectrum off by %g of %g, round trip by %g of %g", p, dSpec, sSpec, dGrid, sGrid)
	}
	for _, m := range []struct {
		name          string
		moved, charge [][]int
	}{{"T1F", t1f, denseOf(p, geo.sizesT1F)}, {"T2F", t2f, denseOf(p, geo.sizesT2F)}, {"T2B", t2b, denseOf(p, geo.sizesT2B)}, {"T1B", t1b, denseOf(p, geo.sizesT1B)}} {
		for q := range p {
			for q2 := range p {
				if m.moved[q][q2] != m.charge[q][q2] {
					t.Fatalf("p=%d %s: pencil %d copied %d bytes to %d, the transpose charges %d",
						p, m.name, q, m.moved[q][q2], q2, m.charge[q][q2])
				}
			}
		}
	}
	// forces charges each stage's lines forward and inverse.
	for q := range p {
		a, b := q/geo.p3, q%geo.p3
		xsW, yW2 := geo.xsOff[a+1]-geo.xsOff[a], geo.yOff2[a+1]-geo.yOff2[a]
		ysW, zW3 := geo.ysOff[b+1]-geo.ysOff[b], geo.zOff3[b+1]-geo.zOff3[b]
		if charged := [3]int{2 * yW2 * zW3, 2 * xsW * zW3, 2 * xsW * ysW}; lines[q] != charged {
			t.Fatalf("p=%d: pencil %d transformed %v x-, y- and z-lines, the pipeline charges %v", p, q, lines[q], charged)
		}
	}
}

// TestHaloMatrixAllocatesNoMatrix: an epoch's halo matrix is built from
// the neighbour lists in at most six allocations at p = 64 and 256, so no
// p×p intermediate exists.
func TestHaloMatrixAllocatesNoMatrix(t *testing.T) {
	for _, p := range []int{64, 256} {
		geo := newDomainGeometry(p, Config{System: paperSystem(), MD: paperMD()})
		nOwn := make([]int, p)
		for d := range nOwn {
			nOwn[d] = 10 + d%7
		}
		if got := testing.AllocsPerRun(5, func() { geo.haloMatrix(nOwn) }); got > 6 {
			t.Errorf("p=%d: building the halo matrix takes %g allocations, want at most 6", p, got)
		}
	}
}

// TestAssemblyOverlapsOracle: the assembly matrix and the pencil point
// counts, built from each axis overlap evaluated once, equal the walk over
// every (domain, pencil) pair of the domains' footprints.
func TestAssemblyOverlapsOracle(t *testing.T) {
	cfg := Config{System: paperSystem(), MD: paperMD()}
	k1, k2, k3 := cfg.MD.PME.K1, cfg.MD.PME.K2, cfg.MD.PME.K3
	for _, p := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 64, 256} {
		geo := newDomainGeometry(p, cfg)
		pts := make([]int64, p)
		assm := denseOf(p, geo.sizesAssm)
		for d := range p {
			for q := range p {
				a, b := q/geo.p3, q%geo.p3
				n := k1 * wrapOverlap(geo.yLo[d], geo.yLen[d], k2, geo.yOff2[a], geo.yOff2[a+1]) *
					wrapOverlap(geo.zLo[d], geo.zLen[d], k3, geo.zOff3[b], geo.zOff3[b+1])
				pts[q] += int64(n)
				if want := bytesPerRealPoint * n; d != q && assm[d][q] != want {
					t.Fatalf("p=%d: domain %d sends pencil %d %d bytes, its footprint overlap %d", p, d, q, assm[d][q], want)
				}
			}
		}
		if !slices.Equal(geo.pencilPts, pts) {
			t.Fatalf("p=%d: pencil points %v, footprint overlaps %v", p, geo.pencilPts, pts)
		}
	}
}
