package ff

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/vec"
)

// Force fields whose table inputs are equal share one table, whatever
// their systems; a different β, switch onset or cutoff gets its own.
func TestForceFieldsOfOneKeyShareTables(t *testing.T) {
	sys, _ := smallSystem(1)
	other, _ := smallSystem(2)
	o := DefaultOptions()
	base := New(sys, o, testBeta)
	if New(other, o, testBeta).table != base.table {
		t.Fatal("two force fields of equal cutoffs and β hold separate tables")
	}
	on, off := o, o
	on.CutOn = 7.5
	off.CutOff, off.ListCutoff = 11, 13
	for name, f := range map[string]*ForceField{
		"β":      New(sys, o, 0.31),
		"SHIFT":  New(sys, o, 0),
		"cut-on": New(sys, on, testBeta),
		"cutoff": New(sys, off, testBeta),
	} {
		if f.table == base.table {
			t.Errorf("a force field of another %s shares the table", name)
		}
	}
}

// Engines are built from several host goroutines at once (cells in
// flight, job-server workers): whoever builds a key first, every force
// field of that key ends up on one table, and a warm force field computes
// the bits of one whose table was freshly built.
func TestInteractionTablesConcurrentBuilders(t *testing.T) {
	sys, pos := smallSystem(3)
	betas := []float64{0, testBeta, 0.29}
	const builders = 8
	got := make([][]*ForceField, builders)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range betas {
				got[g] = append(got[g], New(sys, DefaultOptions(), b))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, f := range got[g] {
			if f.table != got[0][i].table {
				t.Fatalf("β=%g: builder %d holds a table of its own", betas[i], g)
			}
		}
	}
	for i, b := range betas {
		warm := got[0][i]
		cold := New(sys, DefaultOptions(), b)
		cold.table = NewInteractionTable(DefaultOptions(), b, defaultTableIntervals)
		pairs := warm.BuildPairs(pos, nil)
		if len(pairs) == 0 {
			t.Fatal("the system lists no pair")
		}
		fw, fc := make([]vec.V, len(pos)), make([]vec.V, len(pos))
		ew := warm.NewNonbondedKernel().Compute(pos, pairs, fw, nil)
		ec := cold.NewNonbondedKernel().Compute(pos, pairs, fc, nil)
		if ew != ec {
			t.Errorf("β=%g: warm energies %+v, cold %+v", b, ew, ec)
		}
		for j := range fw {
			if fw[j] != fc[j] {
				t.Fatalf("β=%g: warm force %d is %v, cold %v", b, j, fw[j], fc[j])
			}
		}
	}
}

// A force field built over a warm memo allocates no table: what New
// allocates then is far below the table's own coefficients.
func TestWarmForceFieldBuildsNoTable(t *testing.T) {
	sys, _ := smallSystem(4)
	f := New(sys, DefaultOptions(), testBeta)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	New(sys, DefaultOptions(), testBeta)
	runtime.ReadMemStats(&after)
	got, table := after.TotalAlloc-before.TotalAlloc, uint64(8*len(f.table.coef))
	t.Logf("a warm New allocated %d B; the table holds %d B", got, table)
	if got >= table/4 {
		t.Fatalf("a warm New allocated %d B, the table holds %d B: it built a table", got, table)
	}
}
