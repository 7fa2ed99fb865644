package topol

import (
	"testing"
	"testing/quick"

	"repro/internal/space"
	"repro/internal/vec"
)

// tinyChain builds a 5-atom linear chain 0-1-2-3-4 for graph tests.
func tinyChain() *System {
	s := &System{
		Box:   space.NewBox(50, 50, 50),
		Types: StandardTypes(),
	}
	res := s.startResidue("CHN")
	for i := 0; i < 5; i++ {
		s.addAtom("A", TypeCT, 0, vec.New(float64(i)*1.5+5, 25, 25), res)
	}
	s.endResidue(res)
	for i := int32(0); i < 4; i++ {
		s.addBond(i, i+1)
	}
	s.DeriveConnectivity()
	return s
}

func TestDeriveConnectivityChain(t *testing.T) {
	s := tinyChain()
	if got := len(s.Angles); got != 3 {
		t.Fatalf("angles = %d, want 3", got)
	}
	if got := len(s.Dihedrals); got != 2 {
		t.Fatalf("dihedrals = %d, want 2", got)
	}
	// Exclusions: 0 excludes 1,2; 2 excludes 0,1,3,4.
	if got := s.Excl.Of(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("excl(0) = %v", got)
	}
	if got := s.Excl.Of(2); len(got) != 4 {
		t.Fatalf("excl(2) = %v", got)
	}
	// 1-4 pairs: (0,3), (1,4).
	if len(s.Pairs14) != 2 {
		t.Fatalf("pairs14 = %v", s.Pairs14)
	}
	want := map[[2]int32]bool{{0, 3}: true, {1, 4}: true}
	for _, p := range s.Pairs14 {
		if !want[p] {
			t.Fatalf("unexpected 1-4 pair %v", p)
		}
	}
}

func TestDeriveConnectivityRing(t *testing.T) {
	// A 4-ring: every atom is 1-2 or 1-3 to every other; no 1-4 pairs.
	s := &System{Box: space.NewBox(20, 20, 20), Types: StandardTypes()}
	res := s.startResidue("RNG")
	pts := []vec.V{{X: 5, Y: 5, Z: 5}, {X: 6.5, Y: 5, Z: 5}, {X: 6.5, Y: 6.5, Z: 5}, {X: 5, Y: 6.5, Z: 5}}
	for _, p := range pts {
		s.addAtom("C", TypeCT, 0, p, res)
	}
	s.endResidue(res)
	s.addBond(0, 1)
	s.addBond(1, 2)
	s.addBond(2, 3)
	s.addBond(3, 0)
	s.DeriveConnectivity()
	if len(s.Pairs14) != 0 {
		t.Fatalf("ring should have no 1-4 pairs, got %v", s.Pairs14)
	}
	if len(s.Angles) != 4 {
		t.Fatalf("ring angles = %d, want 4", len(s.Angles))
	}
	for i := int32(0); i < 4; i++ {
		for j := int32(0); j < 4; j++ {
			if i != j && !s.Excl.Excluded(i, j) {
				t.Fatalf("ring atoms %d,%d not excluded", i, j)
			}
		}
	}
}

func TestExclusionsSymmetry(t *testing.T) {
	s := NewMyoglobinSystem(MyoglobinConfig{Seed: 1})
	n := int32(s.N())
	// Spot check symmetry on a sample (full n² check is too slow).
	for i := int32(0); i < n; i += 37 {
		for _, j := range s.Excl.Of(int(i)) {
			if !s.Excl.Excluded(j, i) {
				t.Fatalf("exclusion asymmetric: %d->%d", i, j)
			}
		}
	}
}

func TestMyoglobinSystemCounts(t *testing.T) {
	s := NewMyoglobinSystem(MyoglobinConfig{Seed: 1})
	if s.N() != TotalAtoms {
		t.Fatalf("atoms = %d, want %d", s.N(), TotalAtoms)
	}
	// Residues: 153 protein + 1 CO + 1 sulfate + 337 waters.
	if got, want := len(s.Residues), NumResidues+2+NumWaters; got != want {
		t.Fatalf("residues = %d, want %d", got, want)
	}
	// Count waters and their atoms.
	waters := 0
	for _, r := range s.Residues {
		if r.Name == "TIP3" {
			waters++
			if r.Last-r.First != atomsPerWater {
				t.Fatalf("water with %d atoms", r.Last-r.First)
			}
		}
	}
	if waters != NumWaters {
		t.Fatalf("waters = %d, want %d", waters, NumWaters)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMyoglobinNeutral(t *testing.T) {
	s := NewMyoglobinSystem(MyoglobinConfig{Seed: 2})
	if q := s.TotalCharge(); q > 1e-9 || q < -1e-9 {
		t.Fatalf("net charge = %g, want 0", q)
	}
	// Protein residues alone must carry +2.
	var protein float64
	for _, r := range s.Residues {
		if r.Name == "R16" || r.Name == "R17" {
			for i := r.First; i < r.Last; i++ {
				protein += s.Atoms[i].Charge
			}
		}
	}
	if protein < 1.999 || protein > 2.001 {
		t.Fatalf("protein charge = %g, want +2", protein)
	}
}

func TestMyoglobinDeterministic(t *testing.T) {
	a := NewMyoglobinSystem(MyoglobinConfig{Seed: 7})
	b := NewMyoglobinSystem(MyoglobinConfig{Seed: 7})
	if a.N() != b.N() {
		t.Fatal("different sizes")
	}
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatalf("position %d differs between identical seeds", i)
		}
	}
	c := NewMyoglobinSystem(MyoglobinConfig{Seed: 8})
	same := 0
	for i := range a.Pos {
		if a.Pos[i] == c.Pos[i] {
			same++
		}
	}
	// Solute placement is seed-independent; water positions must differ.
	if same == a.N() {
		t.Fatal("different seeds produced identical systems")
	}
}

func TestMyoglobinGeometrySane(t *testing.T) {
	s := NewMyoglobinSystem(MyoglobinConfig{Seed: 3})
	// All bonds shorter than 7 Å (turn bonds are strained but bounded) and
	// longer than 0.5 Å.
	for _, b := range s.Bonds {
		d := s.Box.Dist(s.Pos[b[0]], s.Pos[b[1]])
		if d < 0.5 || d > 7.0 {
			t.Fatalf("bond %v has length %g", b, d)
		}
	}
	// No two atoms closer than 0.5 Å (cheap grid check via cell list).
	cl := space.NewCellList(s.Box, 1.0, s.Pos)
	for _, p := range cl.Pairs(s.Pos, nil) {
		if d := s.Box.Dist(s.Pos[p.I], s.Pos[p.J]); d < 0.5 {
			t.Fatalf("atoms %d,%d overlap: %g Å", p.I, p.J, d)
		}
	}
	// All positions inside the primary cell.
	for i, p := range s.Pos {
		if p.X < 0 || p.X >= BoxX || p.Y < 0 || p.Y >= BoxY || p.Z < 0 || p.Z >= BoxZ {
			t.Fatalf("atom %d outside box: %v", i, p)
		}
	}
}

func TestMyoglobinConnectivityScale(t *testing.T) {
	s := NewMyoglobinSystem(MyoglobinConfig{Seed: 4})
	// Bonds: protein ≈ 2533+152? Just sanity-check the orders of magnitude
	// and internal consistency rather than exact values.
	if len(s.Bonds) < 3000 || len(s.Bonds) > 4200 {
		t.Fatalf("bond count %d out of expected range", len(s.Bonds))
	}
	if len(s.Angles) < 2500 {
		t.Fatalf("angle count %d too small", len(s.Angles))
	}
	if len(s.Dihedrals) < 2000 {
		t.Fatalf("dihedral count %d too small", len(s.Dihedrals))
	}
	if len(s.Impropers) != NumResidues-1 {
		t.Fatalf("impropers = %d, want %d", len(s.Impropers), NumResidues-1)
	}
	if len(s.Excl.list) == 0 || len(s.Pairs14) == 0 {
		t.Fatal("missing exclusions or 1-4 pairs")
	}
	// Every bond is excluded; no 1-4 pair is excluded.
	for _, b := range s.Bonds {
		if !s.Excl.Excluded(b[0], b[1]) {
			t.Fatalf("bond %v not excluded", b)
		}
	}
	for _, p := range s.Pairs14 {
		if s.Excl.Excluded(p[0], p[1]) {
			t.Fatalf("1-4 pair %v is excluded", p)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s := tinyChain()
	s.Bonds = append(s.Bonds, [2]int32{0, 99})
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range bond")
	}
	s = tinyChain()
	s.Bonds = append(s.Bonds, [2]int32{2, 2})
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted self bond")
	}
	s = tinyChain()
	s.Pos = s.Pos[:3]
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted position/atom mismatch")
	}
}

func TestRandomChainConnectivityProperty(t *testing.T) {
	// For random linear chains: exclusions are symmetric, 1-4 pairs are
	// disjoint from exclusions, and every bonded pair is excluded.
	f := func(rawN uint8) bool {
		n := int(rawN%40) + 2
		s := &System{Box: space.NewBox(200, 200, 200), Types: StandardTypes()}
		res := s.startResidue("CHN")
		for i := 0; i < n; i++ {
			s.addAtom("A", TypeCT, 0, vec.New(float64(i)*1.5+1, 10, 10), res)
		}
		s.endResidue(res)
		for i := int32(0); i < int32(n-1); i++ {
			s.addBond(i, i+1)
		}
		s.DeriveConnectivity()
		for i := 0; i < n; i++ {
			for _, j := range s.Excl.Of(i) {
				if !s.Excl.Excluded(j, int32(i)) {
					return false
				}
			}
		}
		for _, p := range s.Pairs14 {
			if s.Excl.Excluded(p[0], p[1]) {
				return false
			}
		}
		for _, b := range s.Bonds {
			if !s.Excl.Excluded(b[0], b[1]) {
				return false
			}
		}
		// A linear chain of n atoms has exactly max(0, n−3) 1-4 pairs.
		want := n - 3
		if want < 0 {
			want = 0
		}
		return len(s.Pairs14) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
