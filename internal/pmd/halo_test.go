package pmd

import (
	"testing"

	"repro/internal/md"
	"repro/internal/space"
	"repro/internal/topol"
)

// haloCover checks one ownership epoch against the owner-computes rule
// buildEpoch counts by: the domain owning the highest-numbered owner among
// a term's atoms computes the term, so every atom of the term must be owned
// by that domain or by one whose haloSizes row ships to it. It returns the
// bytes the model charges (the sum of haloSizes) and the bytes the domains
// need (24 B per distinct atom each one must import).
func haloCover(t *testing.T, sys *topol.System, pairs []space.Pair, ep *epochData) (charged, needed int) {
	t.Helper()
	n := int64(sys.N())
	imports := map[int64]struct{}{} // computing domain · N + imported atom
	term := func(kind string, atoms ...int32) {
		d := ep.own[atoms[0]]
		for _, a := range atoms[1:] {
			d = max(d, ep.own[a])
		}
		for _, a := range atoms {
			o := ep.own[a]
			if o == d {
				continue
			}
			if ep.haloSizes[o][d] == 0 {
				t.Fatalf("%s %v: domain %d computes it, but atom %d's owner %d ships no halo to it", kind, atoms, d, a, o)
			}
			imports[int64(d)*n+int64(a)] = struct{}{}
		}
	}
	for _, pr := range pairs {
		term("pair", pr.I, pr.J)
	}
	for _, b := range sys.Bonds {
		term("bond", b[:]...)
	}
	for _, a := range sys.Angles {
		term("angle", a[:]...)
	}
	for _, dh := range sys.Dihedrals {
		term("dihedral", dh[:]...)
	}
	for _, im := range sys.Impropers {
		term("improper", im[:]...)
	}
	for _, pr := range sys.Pairs14 {
		term("1-4 pair", pr[:]...)
	}
	for i := 0; i < sys.N(); i++ {
		for _, j := range sys.Excl.Of(i) {
			if int(j) > i {
				term("excluded pair", int32(i), j)
			}
		}
	}
	for _, row := range ep.haloSizes {
		for _, b := range row {
			charged += b
		}
	}
	return charged, bytesPerCoord * len(imports)
}

// TestDomainHaloCoversEveryTerm: no domain computes a term with an atom
// outside its own block and the halo it is charged for, in every epoch of
// the canonical evaluator (the spans between neighbour-list rebuilds, so
// the epochs after atoms migrate too), at prime, composite and power-of-two
// rank counts up to the ceiling's p = 1024. Each p logs the halo bytes the
// model charges against the bytes the domains need.
func TestDomainHaloCoversEveryTerm(t *testing.T) {
	// cover walks the first steps+1 evaluations at rank count p and checks
	// each epoch once, when a rebuild (or the initial build) starts it.
	cover := func(name string, sys *topol.System, mdc md.Config, steps int, ps []int) {
		cfg := Config{System: sys, MD: mdc, Steps: steps, Decomp: DecompDomain}
		seed := md.NewEngine(sys, mdc)
		for _, p := range ps {
			c := newShared(p, cfg, seed, nil).canon
			var last *epochData
			charged, needed, epochs := 0, 0, 0
			for s := -1; s < steps; s++ {
				st := c.state(s)
				if st.epoch == last {
					continue
				}
				last = st.epoch
				ch, ne := haloCover(t, sys, c.pairs, st.epoch)
				charged, needed, epochs = charged+ch, needed+ne, epochs+1
			}
			if steps > 0 && epochs < 2 {
				t.Fatalf("%s p=%d: %d epoch in %d steps, want a rebuild", name, p, epochs, steps)
			}
			t.Logf("%s p=%d, epochs %d: halo charged %d B, needed %d B, ratio %.2f",
				name, p, epochs, charged, needed, float64(charged)/float64(needed))
		}
	}

	water := testMDConfig()
	water.FF.ListCutoff = water.FF.CutOff + 0.5
	cover("water", testSystem(300, 30, 1), water, 12, []int{2, 3, 5, 7, 8, 16, 27, 64})

	// The paper's system, built and relaxed as figures.NewSuite does, at the
	// ceiling's domain rank counts; its initial epoch only.
	mb := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	md.Relax(mb, 80)
	paper := md.PMEDefaultConfig()
	paper.Temperature = 300
	cover("myoglobin", mb, paper, 0, []int{8, 64, 256, 1024})
}
