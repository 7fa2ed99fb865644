package ewald

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/space"
	"repro/internal/vec"
)

// sharesHalf reports whether a and b, after a Recip each, read one set of
// half-spectrum influence tables.
func sharesHalf(a, b *PME) bool {
	return &a.eCoefH[0] == &b.eCoefH[0] && &a.cCoefH[0] == &b.cCoefH[0]
}

// recipInto evaluates p's reciprocal sum over a fresh force array.
func recipInto(p *PME, pos []vec.V, charges []float64) (float64, []vec.V) {
	frc := make([]vec.V, len(pos))
	return p.Recip(pos, charges, frc, nil), frc
}

// PMEs of equal box edges, β, mesh and order share their influence
// tables; a different value of any of them gets its own.
func TestPMEsOfOneKeyShareTables(t *testing.T) {
	box := space.NewBox(20, 18, 22)
	pos, charges := poolTestSystem(200, box)
	build := func(box space.Box, beta float64, k1, k2, k3, order int) *PME {
		p := NewPME(box, beta, k1, k2, k3, order)
		recipInto(p, pos, charges)
		return p
	}
	base := build(box, 0.34, 40, 18, 24, 4)
	if !sharesHalf(base, build(box, 0.34, 40, 18, 24, 4)) {
		t.Fatal("two PMEs of one key hold separate influence tables")
	}
	for name, p := range map[string]*PME{
		"β":     build(box, 0.32, 40, 18, 24, 4),
		"box":   build(space.NewBox(20, 18, 22.5), 0.34, 40, 18, 24, 4),
		"mesh":  build(box, 0.34, 40, 20, 24, 4),
		"order": build(box, 0.34, 40, 18, 24, 5),
	} {
		if sharesHalf(base, p) {
			t.Errorf("a PME of another %s shares the influence tables", name)
		}
	}
}

// Engines are built from several host goroutines at once (cells in
// flight, job-server workers): whoever builds a key first, every PME of
// that key ends up on one set of tables, and a warm PME computes the bits
// of one whose tables were freshly built.
func TestHalfTablesConcurrentBuilders(t *testing.T) {
	box := space.NewBox(20, 18, 22)
	pos, charges := poolTestSystem(300, box)
	betas := []float64{0.34, 0.3, 0.27}
	const builders = 8
	got := make([][]*PME, builders)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range betas {
				p := NewPME(box, b, 40, 18, 24, 4)
				recipInto(p, pos, charges)
				got[g] = append(got[g], p)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, p := range got[g] {
			if !sharesHalf(p, got[0][i]) {
				t.Fatalf("β=%g: builder %d holds tables of its own", betas[i], g)
			}
		}
	}
	for i, b := range betas {
		cold := NewPME(box, b, 40, 18, 24, 4)
		cold.allocRecip()
		h := cold.buildHalfInfluence()
		cold.eCoefH, cold.cCoefH = h.e, h.c
		ec, fc := recipInto(cold, pos, charges)
		ew, fw := recipInto(got[0][i], pos, charges)
		if ec != ew {
			t.Errorf("β=%g: warm energy %x, cold %x", b, ew, ec)
		}
		for j := range fw {
			if fw[j] != fc[j] {
				t.Fatalf("β=%g: warm force %d is %v, cold %v", b, j, fw[j], fc[j])
			}
		}
	}
}

// A PME built over a warm memo builds no influence table on its first
// Recip: it allocates its grid, convolution and spectrum buffers and
// little more, not the tables on top.
func TestWarmPMEBuildsNoTables(t *testing.T) {
	box := space.NewBox(20, 18, 22)
	pos, charges := poolTestSystem(200, box)
	recipInto(NewPME(box, 0.34, 40, 18, 24, 4), pos, charges)
	p := NewPME(box, 0.34, 40, 18, 24, 4)
	frc := make([]vec.V, len(pos))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.Recip(pos, charges, frc, nil)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	buffers := uint64(8*(len(p.rgrid)+len(p.rconv)) + 16*len(p.spec))
	tables := uint64(8 * (len(p.eCoefH) + len(p.cCoefH)))
	t.Logf("a warm first Recip allocated %d B: buffers %d B, tables %d B", got, buffers, tables)
	if got >= buffers+tables/2 {
		t.Fatalf("a warm first Recip allocated %d B, its buffers %d B: it built influence tables (%d B)", got, buffers, tables)
	}
}
