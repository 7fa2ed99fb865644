package figures

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/pmd"
)

func baseCellKey() CellKey {
	return CellKey{
		Cluster:    cluster.Config{Nodes: 4, CPUsPerNode: 1, Net: netmodel.TCPGigE(), Seed: 1},
		Middleware: pmd.MiddlewareMPI,
		Steps:      10,
	}
}

// The rendered key is versioned and stable: a change to this golden value
// must come with a CellKeyVersion bump, or on-disk stores and in-memory
// caches keyed under the old scheme would silently collide with the new.
func TestCellKeyGolden(t *testing.T) {
	got := baseCellKey().String()
	if !strings.HasPrefix(got, "cell/v3 ") {
		t.Fatalf("key %q does not carry the v3 version prefix", got)
	}
	want := "cell/v3 " + baseCellKey().Cluster.Key() + ` mw=MPI steps=10 fault="" decomp=replicated`
	if got != want {
		t.Fatalf("rendered key drifted:\n got  %q\n want %q\n(bump CellKeyVersion if the change is intentional)", got, want)
	}
}

// Every field of the key must be discriminating: two cells differing in
// any single factor must never share a key (a collision would serve one
// configuration's results for another).
func TestCellKeyDiscriminatesEveryField(t *testing.T) {
	variants := map[string]func(*CellKey){
		"nodes":      func(k *CellKey) { k.Cluster.Nodes = 8 },
		"cpus":       func(k *CellKey) { k.Cluster.CPUsPerNode = 2 },
		"seed":       func(k *CellKey) { k.Cluster.Seed = 2 },
		"network":    func(k *CellKey) { k.Cluster.Net = netmodel.MyrinetGM() },
		"middleware": func(k *CellKey) { k.Middleware = pmd.MiddlewareCMPI },
		"modern":     func(k *CellKey) { k.Middleware = pmd.MiddlewareModern },
		"steps":      func(k *CellKey) { k.Steps = 11 },
		"fault":      func(k *CellKey) { k.FaultSpec = "crash rank 1 at 0.5" },
		"decomp":     func(k *CellKey) { k.Decomp = pmd.DecompDomain },
	}
	base := baseCellKey().String()
	seen := map[string]string{"base": base}
	for name, mutate := range variants {
		k := baseCellKey()
		mutate(&k)
		s := k.String()
		if prev, dup := seen[s]; dup {
			t.Errorf("variant %q collides with %q: key %q", name, prev, s)
		}
		seen[s] = name
	}
}

// A healthy fault spec and the empty string must not collide with specs
// that merely *render* similarly (quoting protects embedded spaces).
func TestCellKeyQuotesFaultSpec(t *testing.T) {
	a := baseCellKey()
	a.FaultSpec = `x" steps=99 fault="`
	b := baseCellKey()
	b.Steps = 99
	if a.String() == b.String() {
		t.Fatalf("fault spec injection collides: %q", a.String())
	}
}
