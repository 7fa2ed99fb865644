package pmd

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ewald"
	"repro/internal/ff"
	"repro/internal/md"
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

// walkEpochs runs the canonical evaluator at rank count p over the first
// steps+1 evaluations and calls fn once per list generation, on the
// snapshot that starts it, with the epoch buildEpoch derives from that
// snapshot. A run of steps > 0 must cross a rebuild.
func walkEpochs(t *testing.T, name string, sys *topol.System, mdc md.Config, steps, p int,
	fn func(c *canonical, st *canonState, ep *epochData)) (epochs int) {
	t.Helper()
	cfg := Config{System: sys, MD: mdc, Steps: steps, Decomp: DecompDomain}
	geo := newDomainGeometry(p, cfg)
	c := newCanonical(p, cfg, md.NewEngine(sys, mdc), false)
	for s := -1; s < steps; s++ {
		if st := c.state(s); st.listGen == epochs {
			fn(c, st, buildEpoch(geo, sys, st))
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
func ownerComputes(sys *topol.System, st *canonState, ep *epochData, term func(kind string, d int32, atoms ...int32)) {
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
func haloCover(t *testing.T, sys *topol.System, st *canonState, ep *epochData) (charged int, needed [][]int) {
	t.Helper()
	n := int64(sys.N())
	imports := map[int64]bool{} // computing domain · N + imported atom
	needed = zeroMatrix(len(ep.nOwn))
	ownerComputes(sys, st, ep, func(kind string, d int32, atoms ...int32) {
		for _, a := range atoms {
			o := ep.own[a]
			if o == d {
				continue
			}
			if ep.haloSizes[o][d] == 0 {
				t.Fatalf("%s %v: domain %d computes it, but atom %d's owner %d ships no halo to it", kind, atoms, d, a, o)
			}
			if k := int64(d)*n + int64(a); !imports[k] {
				imports[k] = true
				needed[o][d] += bytesPerCoord
			}
		}
	})
	for _, row := range ep.haloSizes {
		for _, b := range row {
			charged += b
		}
	}
	return charged, needed
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
// the canonical trajectory (the spans between neighbour-list rebuilds, so
// the epochs after atoms migrate too), at prime, composite and power-of-two
// rank counts up to the ceiling's p = 1024. Each p logs the halo bytes the
// model charges against the bytes the domains need.
func TestDomainHaloCoversEveryTerm(t *testing.T) {
	cover := func(name string, sys *topol.System, mdc md.Config, steps int, ps []int) {
		for _, p := range ps {
			charged, needed := 0, 0
			epochs := walkEpochs(t, name, sys, mdc, steps, p, func(_ *canonical, st *canonState, ep *epochData) {
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
			walkEpochs(t, name, sys, mdc, steps, p, func(c *canonical, st *canonState, ep *epochData) {
				haloOracle(t, c, st, ep)
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
func haloOracle(t *testing.T, c *canonical, st *canonState, ep *epochData) {
	t.Helper()
	sys, p, pos := c.sys, len(ep.nOwn), st.pos
	beta := c.cfg.MD.PME.Beta

	// Reference: every term over the full arrays.
	want := make([]vec.V, sys.N())
	eWant := c.ffield.Bonded(pos, want, nil)
	eWant.Add(c.ffield.Nonbonded(pos, st.pairs, want, nil))
	eWant.Add(c.ffield.Pairs14(pos, want, nil))
	exWant := ewald.ExclusionCorrection(sys.Box, pos, c.charges, sys.Excl, beta, want, nil)

	// Owned atoms first, then the halo each domain's terms import.
	doms := make([]localDomain, p)
	for d := range doms {
		doms[d] = localDomain{loc: map[int32]int32{}, sys: topol.System{Box: sys.Box, Types: sys.Types}}
	}
	for i, d := range ep.own {
		doms[d].add(int32(i))
	}
	copied := zeroMatrix(p)
	ownerComputes(sys, st, ep, func(kind string, d int32, atoms ...int32) {
		l := &doms[d]
		var ix [4]int32
		for k, a := range atoms {
			if o := ep.own[a]; o != d {
				if _, ok := l.loc[a]; !ok {
					if ep.haloSizes[o][d] == 0 {
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
		lff := ff.New(&l.sys, c.ffield.Opts)
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
			if o := ep.own[g]; o != int32(d) && ep.frcRetSizes[d][o] == 0 {
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
