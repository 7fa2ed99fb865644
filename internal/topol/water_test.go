package topol

import (
	"testing"

	"repro/internal/space"
)

func TestNewWaterBox(t *testing.T) {
	s := NewWaterBox(64, 14, 1)
	if s.N() != 64*3 {
		t.Fatalf("atoms = %d", s.N())
	}
	if len(s.Bonds) != 64*2 || len(s.Angles) != 64 {
		t.Fatalf("bonds/angles = %d/%d", len(s.Bonds), len(s.Angles))
	}
	if q := s.TotalCharge(); q > 1e-9 || q < -1e-9 {
		t.Fatalf("net charge %g", q)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// No overlapping molecules.
	cl := space.NewCellList(s.Box, 1.0, s.Pos)
	for _, p := range cl.PairsAppend(s.Pos, nil, nil) {
		if d := s.Box.Dist(s.Pos[p.I], s.Pos[p.J]); d < 0.5 {
			t.Fatalf("atoms %d,%d overlap at %g Å", p.I, p.J, d)
		}
	}
}

func TestNewWaterBoxDeterministic(t *testing.T) {
	a := NewWaterBox(27, 12, 5)
	b := NewWaterBox(27, 12, 5)
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatal("same seed produced different boxes")
		}
	}
}

func TestNewSolvatedBox(t *testing.T) {
	for _, target := range []int{1000, 3552, 8000} {
		sys, k := NewSolvatedBox(target, 2)
		// Atom count within 5% of the target (water granularity).
		if d := float64(sys.N()-target) / float64(target); d > 0.05 || d < -0.05 {
			t.Fatalf("target %d: built %d atoms", target, sys.N())
		}
		if k%4 != 0 || float64(k) < sys.Box.L.X-0.5 {
			t.Fatalf("target %d: mesh %d for box %g", target, k, sys.Box.L.X)
		}
		// Density near liquid water.
		density := float64(sys.N()/3) / sys.Box.Volume()
		if density < 0.025 || density > 0.045 {
			t.Fatalf("density %g waters/Å³", density)
		}
	}
}
