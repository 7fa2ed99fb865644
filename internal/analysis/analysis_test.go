package analysis

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/vec"
)

func uniformGas(r *rng.Source, n int, box space.Box) []vec.V {
	pos := make([]vec.V, n)
	for i := range pos {
		pos[i] = vec.New(r.Range(0, box.L.X), r.Range(0, box.L.Y), r.Range(0, box.L.Z))
	}
	return pos
}

func all(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

func TestRDFIdealGasIsFlat(t *testing.T) {
	box := space.NewBox(30, 30, 30)
	r := rng.New(1)
	// Average over several random configurations for statistics.
	var frames [][]vec.V
	for k := 0; k < 20; k++ {
		frames = append(frames, uniformGas(r, 400, box))
	}
	sel := all(400)
	_, g, err := RDFFrames(box, frames, sel, sel, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Beyond the first couple of bins (poor statistics at tiny r), g ≈ 1.
	for b := 4; b < len(g); b++ {
		if g[b] < 0.8 || g[b] > 1.2 {
			t.Fatalf("ideal-gas g(r) bin %d = %g, want ≈1", b, g[b])
		}
	}
}

func TestRDFLatticePeak(t *testing.T) {
	// A simple cubic lattice with spacing 5 Å: g(r) must peak in the bin
	// containing r = 5 and vanish below it (beyond the self-exclusion).
	box := space.NewBox(30, 30, 30)
	var pos []vec.V
	for x := 0; x < 6; x++ {
		for y := 0; y < 6; y++ {
			for z := 0; z < 6; z++ {
				pos = append(pos, vec.New(float64(x)*5, float64(y)*5, float64(z)*5))
			}
		}
	}
	sel := all(len(pos))
	r, g, err := RDF(box, pos, sel, sel, 9, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// The first populated bin is the nearest-neighbour shell at r = 5
	// (the second shell at 5·√2 has equal g by shell geometry, so the
	// global argmax is ambiguous — the first shell is not).
	first := -1
	for b := range g {
		if g[b] > 0 {
			first = b
			break
		}
	}
	if first < 0 || math.Abs(r[first]-5.0) > 0.25 {
		t.Fatalf("first shell at r=%v, want ≈5 (g=%v)", r[first], g)
	}
	if g[first] < 2 {
		t.Fatalf("first shell g = %g, expected a strong peak", g[first])
	}
}

func TestRDFValidation(t *testing.T) {
	box := space.NewBox(10, 10, 10)
	pos := []vec.V{{X: 1}, {X: 2}}
	sel := all(2)
	if _, _, err := RDF(box, pos, sel, sel, 20, 0.5); err == nil {
		t.Fatal("rmax beyond minimum image accepted")
	}
	if _, _, err := RDF(box, pos, nil, sel, 4, 0.5); err == nil {
		t.Fatal("empty selection accepted")
	}
	if _, _, err := RDF(box, pos, sel, sel, 4, 0); err == nil {
		t.Fatal("zero dr accepted")
	}
	if _, _, err := RDF(box, pos, []int32{0}, []int32{0}, 4, 0.5); err == nil {
		t.Fatal("self-only selection accepted")
	}
}

func TestMSDBallistic(t *testing.T) {
	// Particles moving at constant velocity: MSD(t) = |v|²·t².
	const n = 10
	v := vec.New(0.3, -0.1, 0.2)
	var frames [][]vec.V
	for step := 0; step < 5; step++ {
		f := make([]vec.V, n)
		for i := range f {
			f[i] = vec.New(float64(i), 0, 0).Add(v.Scale(float64(step)))
		}
		frames = append(frames, f)
	}
	msd, err := MSD(frames, all(n))
	if err != nil {
		t.Fatal(err)
	}
	v2 := v.Norm2()
	for tt := range msd {
		want := v2 * float64(tt*tt)
		if math.Abs(msd[tt]-want) > 1e-12 {
			t.Fatalf("MSD(%d) = %g, want %g", tt, msd[tt], want)
		}
	}
}

func TestSelectByName(t *testing.T) {
	names := []string{"OW", "HW1", "HW2", "OW"}
	got := SelectByName(names, "OW")
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("SelectByName = %v", got)
	}
	if SelectByName(names, "XX") != nil {
		t.Fatal("phantom selection")
	}
}
