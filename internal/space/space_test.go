package space

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/kernels"
	"repro/internal/rng"
	"repro/internal/vec"
)

func TestWrap(t *testing.T) {
	b := NewBox(10, 20, 30)
	cases := []struct{ in, want vec.V }{
		{vec.New(5, 5, 5), vec.New(5, 5, 5)},
		{vec.New(-1, 21, 31), vec.New(9, 1, 1)},
		{vec.New(10, 20, 30), vec.New(0, 0, 0)},
		{vec.New(-10.5, 0, 0), vec.New(9.5, 0, 0)},
	}
	for _, c := range cases {
		got := b.Wrap(c.in)
		if vec.Dist(got, c.want) > 1e-12 {
			t.Errorf("Wrap(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWrapInRangeProperty(t *testing.T) {
	b := NewBox(7.3, 11.1, 5.5)
	f := func(x, y, z float64) bool {
		p := vec.New(math.Mod(x, 1e6), math.Mod(y, 1e6), math.Mod(z, 1e6))
		w := b.Wrap(p)
		return w.X >= 0 && w.X < b.L.X && w.Y >= 0 && w.Y < b.L.Y && w.Z >= 0 && w.Z < b.L.Z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinImage(t *testing.T) {
	b := NewBox(10, 10, 10)
	// Points near opposite faces are close through the boundary.
	a := vec.New(0.5, 5, 5)
	p := vec.New(9.5, 5, 5)
	if d := b.Dist(a, p); math.Abs(d-1) > 1e-12 {
		t.Fatalf("Dist across boundary = %v, want 1", d)
	}
	d := b.MinImage(a, p)
	if math.Abs(d.X-1) > 1e-12 || d.Y != 0 || d.Z != 0 {
		t.Fatalf("MinImage = %v, want (1,0,0)", d)
	}
}

func TestMinImageSymmetry(t *testing.T) {
	b := NewBox(8, 9, 10)
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := vec.New(math.Mod(ax, 100), math.Mod(ay, 100), math.Mod(az, 100))
		p := vec.New(math.Mod(bx, 100), math.Mod(by, 100), math.Mod(bz, 100))
		d1 := b.MinImage(a, p)
		d2 := b.MinImage(p, a)
		// Antisymmetric, and no component exceeds half the box.
		if vec.Dist(d1, d2.Neg()) > 1e-9 {
			return false
		}
		return math.Abs(d1.X) <= b.L.X/2+1e-9 &&
			math.Abs(d1.Y) <= b.L.Y/2+1e-9 &&
			math.Abs(d1.Z) <= b.L.Z/2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinImageInvariantUnderWrapping(t *testing.T) {
	b := NewBox(12, 15, 9)
	r := rng.New(1)
	for i := 0; i < 200; i++ {
		a := vec.New(r.Range(-50, 50), r.Range(-50, 50), r.Range(-50, 50))
		p := vec.New(r.Range(-50, 50), r.Range(-50, 50), r.Range(-50, 50))
		shift := vec.New(b.L.X*float64(r.Intn(7)-3), b.L.Y*float64(r.Intn(7)-3), b.L.Z*float64(r.Intn(7)-3))
		if math.Abs(b.Dist(a, p)-b.Dist(a.Add(shift), p)) > 1e-9 {
			t.Fatalf("distance changed under lattice shift")
		}
	}
}

func TestVolumeAndMaxCutoff(t *testing.T) {
	b := NewBox(80, 36, 48)
	if got := b.Volume(); math.Abs(got-80*36*48) > 1e-9 {
		t.Fatalf("Volume = %v", got)
	}
	if got := b.MaxCutoff(); got != 18 {
		t.Fatalf("MaxCutoff = %v, want 18", got)
	}
}

func TestFrac(t *testing.T) {
	b := NewBox(4, 8, 16)
	f := b.Frac(vec.New(1, 2, 4))
	if vec.Dist(f, vec.New(0.25, 0.25, 0.25)) > 1e-12 {
		t.Fatalf("Frac = %v", f)
	}
	f = b.Frac(vec.New(-1, 10, 16))
	if vec.Dist(f, vec.New(0.75, 0.25, 0)) > 1e-12 {
		t.Fatalf("Frac wrapped = %v", f)
	}
}

func TestNewBoxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBox with zero edge did not panic")
		}
	}()
	NewBox(0, 1, 1)
}

func canonPairs(ps []Pair) []Pair {
	out := append([]Pair(nil), ps...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].J < out[b].J
	})
	return out
}

func samePairs(a, b []Pair) bool {
	a, b = canonPairs(a), canonPairs(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randomPositions(r *rng.Source, n int, b Box) []vec.V {
	pos := make([]vec.V, n)
	for i := range pos {
		pos[i] = vec.New(r.Range(0, b.L.X), r.Range(0, b.L.Y), r.Range(0, b.L.Z))
	}
	return pos
}

func TestCellListMatchesBruteForce(t *testing.T) {
	r := rng.New(42)
	boxes := []Box{
		NewBox(20, 20, 20),
		NewBox(80, 36, 48),
		NewBox(10.5, 30, 14),
	}
	for _, b := range boxes {
		for _, n := range []int{0, 1, 2, 50, 300} {
			pos := randomPositions(r, n, b)
			cutoff := math.Min(5.0, b.MaxCutoff())
			cl := NewCellList(b, cutoff, pos)
			var evals int64
			got := cl.PairsAppend(pos, nil, &evals)
			want := BruteForcePairs(b, cutoff, pos)
			if !samePairs(got, want) {
				t.Fatalf("box %v n=%d: cell list %d pairs, brute force %d", b.L, n, len(got), len(want))
			}
			if n >= 50 && evals == 0 {
				t.Fatal("no distance evaluations recorded")
			}
		}
	}
}

func TestCellListSmallBoxAliasing(t *testing.T) {
	// Cutoff large enough that only 2 cells fit per dimension: wrapping
	// aliases stencil offsets, which the visited-cell stamps must absorb
	// without duplicating pairs.
	b := NewBox(10, 10, 10)
	r := rng.New(7)
	pos := randomPositions(r, 120, b)
	cl := NewCellList(b, 4.9, pos)
	got := cl.PairsAppend(pos, nil, nil)
	want := BruteForcePairs(b, 4.9, pos)
	if !samePairs(got, want) {
		t.Fatalf("aliased cell list: %d pairs vs brute force %d", len(got), len(want))
	}
	// No duplicates.
	set := map[Pair]bool{}
	for _, p := range got {
		if set[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		set[p] = true
	}
}

func TestCellListPairOrdering(t *testing.T) {
	b := NewBox(30, 30, 30)
	r := rng.New(3)
	pos := randomPositions(r, 100, b)
	cl := NewCellList(b, 6, pos)
	for _, p := range cl.PairsAppend(pos, nil, nil) {
		if p.I >= p.J {
			t.Fatalf("pair not ordered: %v", p)
		}
	}
}

func TestCellListCutoffValidation(t *testing.T) {
	b := NewBox(10, 10, 10)
	for _, bad := range []float64{0, -1, 5.01} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cutoff %v did not panic", bad)
				}
			}()
			NewCellList(b, bad, nil)
		}()
	}
}

func TestCellListDenseCluster(t *testing.T) {
	// All atoms in one corner: stresses the single-cell path.
	b := NewBox(40, 40, 40)
	r := rng.New(9)
	pos := make([]vec.V, 60)
	for i := range pos {
		pos[i] = vec.New(r.Range(0, 2), r.Range(0, 2), r.Range(0, 2))
	}
	cl := NewCellList(b, 8, pos)
	got := cl.PairsAppend(pos, nil, nil)
	want := BruteForcePairs(b, 8, pos)
	if !samePairs(got, want) {
		t.Fatalf("dense cluster mismatch: %d vs %d", len(got), len(want))
	}
	if len(got) != 60*59/2 {
		t.Fatalf("expected all pairs within cutoff, got %d", len(got))
	}
}

// Rebuild at new positions — some outside the primary cell — lists what a
// fresh cell list lists, in the same order, and allocates nothing.
func TestCellListRebuildMatchesFresh(t *testing.T) {
	b := NewBox(30, 22, 26)
	r := rng.New(11)
	pos := randomPositions(r, 400, b)
	cl := NewCellList(b, 7, pos)
	buf := cl.PairsAppend(pos, nil, nil)
	for i := range pos {
		pos[i] = pos[i].Add(vec.New(r.Range(-40, 40), r.Range(-3, 3), r.Range(-3, 3)))
	}
	if allocs := testing.AllocsPerRun(1, func() { cl.Rebuild(pos) }); allocs != 0 {
		t.Errorf("Rebuild allocates %v times", allocs)
	}
	var evals, wantEvals int64
	got := cl.PairsAppend(pos, buf, &evals)
	want := NewCellList(b, 7, pos).PairsAppend(pos, nil, &wantEvals)
	if len(got) != len(want) || evals != wantEvals {
		t.Fatalf("rebuilt list: %d pairs in %d evaluations; fresh list %d in %d", len(got), evals, len(want), wantEvals)
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("pair %d: rebuilt list has %v, fresh list %v", k, got[k], want[k])
		}
	}
}

// Pairs sizes its buffer from a sample scan: once, with room to spare but
// not much, whether the atoms fill the box evenly or half of them sit in
// one blob (where cell occupancies say little about the pair count).
func TestPairsBufferSizedOnce(t *testing.T) {
	b := NewBox(40, 36, 48)
	r := rng.New(5)
	uniform := randomPositions(r, 3000, b)
	blob := randomPositions(r, 3000, b)
	for i := 0; i < len(blob)/2; i++ {
		blob[i] = vec.New(r.Range(14, 22), r.Range(14, 22), r.Range(14, 22))
	}
	for name, pos := range map[string][]vec.V{"uniform": uniform, "blob": blob} {
		pairs := NewCellList(b, 10, pos).PairsAppend(pos, nil, nil)
		if est := cap(pairs); est < len(pairs) || 10*est > 14*len(pairs) {
			t.Errorf("%s: buffer of %d for %d pairs", name, est, len(pairs))
		}
	}
}

// A lane whose sample misses its cell's blob outgrows its region by
// append; the regions are then copied into one buffer of the list's
// length, which is still the serial scan's list, at every lane count.
func TestLaneScanShortRegion(t *testing.T) {
	b := NewBox(40, 40, 40)
	r := rng.New(9)
	pos := randomPositions(r, 400, b)
	// Cell (2,2,2) spans [20,30)³. Its first 320 atoms in index order are
	// the sample's every 16th alone at one corner and a blob at the other.
	for i := 0; i < 320; i++ {
		if i%16 == 0 {
			pos[i] = vec.New(r.Range(20.1, 20.3), r.Range(20.1, 20.3), r.Range(20.1, 20.3))
		} else {
			pos[i] = vec.New(r.Range(29.3, 29.7), r.Range(29.3, 29.7), r.Range(29.3, 29.7))
		}
	}
	var wantEvals int64
	want := NewCellList(b, 10, pos).PairsAppend(pos, nil, &wantEvals)
	for _, w := range []int{1, 2, 3, 4} {
		cl := NewCellList(b, 10, pos)
		cl.SetPool(kernels.NewPool(w))
		var evals int64
		got := cl.PairsAppend(pos, nil, &evals)
		if !slices.Equal(got, want) || evals != wantEvals {
			t.Fatalf("%d lanes: %d pairs and %d evaluations, the serial scan %d and %d", w, len(got), evals, len(want), wantEvals)
		}
		if w > 1 && cap(got) != len(got) {
			t.Fatalf("%d lanes: a short region left a buffer of %d for %d pairs, not one copy of the list", w, cap(got), len(got))
		}
	}
}

// BruteForcePairs returns all pairs within cutoff by the O(N²) method.
// It is the ground truth the cell-list tests compare against.
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

// TestLaneScanReusesStorage: a scan on several lanes into storage that
// holds the list with an eighth to spare — less than the sample
// estimate's headroom — fills that storage rather than a new buffer, and
// storage too small for the list is replaced by one with append's
// headroom, so a rebuild that reuses it allocates no list either.
func TestLaneScanReusesStorage(t *testing.T) {
	b := NewBox(40, 40, 40)
	pos := randomPositions(rng.New(5), 3000, b)
	want := NewCellList(b, 10, pos).PairsAppend(pos, nil, nil)
	for _, w := range []int{2, 3, 4} {
		cl := NewCellList(b, 10, pos)
		cl.SetPool(kernels.NewPool(w))
		roomy := make([]Pair, 0, len(want)+len(want)/8)
		if got := cl.PairsAppend(pos, roomy, nil); !slices.Equal(got, want) || &got[:1][0] != &roomy[:1][0] {
			t.Fatalf("%d lanes: into storage with an eighth to spare, %d pairs (the serial scan's %v), in that storage %v",
				w, len(got), slices.Equal(got, want), &got[:1][0] == &roomy[:1][0])
		}
		grown := cl.PairsAppend(pos, make([]Pair, 0, len(want)/2), nil)
		if !slices.Equal(grown, want) || cap(grown) < len(want)+len(want)/4 {
			t.Fatalf("%d lanes: storage for half the list grew to %d for %d pairs, want append's headroom", w, cap(grown), len(grown))
		}
		if again := cl.PairsAppend(pos, grown, nil); &again[:1][0] != &grown[:1][0] {
			t.Fatalf("%d lanes: a rebuild into the grown storage allocated a new list", w)
		}
	}
}
