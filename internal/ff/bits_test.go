package ff_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/ff"
	"repro/internal/kernels"
	"repro/internal/md"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/topol"
	"repro/internal/vec"
	"repro/internal/work"
)

// The bits oracle of the classic half of the step. testdata/bits_golden.json
// holds one SHA-256 per case over the math.Float64bits of the energies and
// every force component NonbondedKernel.Compute returns (at 1, 2 and 4
// workers, and the ForceField.Nonbonded reference loop), and one over the pair
// sequence and ListDistEvals of PairLister.Build. The list digests were
// captured from the implementation that rounded three image shifts per
// listed pair and filtered the raw list through a binary search and a map
// probe, so they pin the merged skip list and the image-0 fast path to that
// implementation's exact pairs, in its order. The pool digests of the
// one-shard cases (smallbox, edges, edges-shift) are the serial pair
// loop's sums from before the kernel had one arithmetic — including
// signed zeros. Every trajectory, figure and profile golden in the
// repository rests on these bits.
//
// The comparison is amd64-only: a target that fuses x*y+z may round an
// equal expression differently. UPDATE_GOLDEN=1 rewrites the file; do that
// only to add cases, from a tree where this test passes.

const bitsGoldenPath = "testdata/bits_golden.json"

// bitsCase is one system under the oracle. pairs is nil for the cases whose
// list comes from PairLister.Build (and is digested too).
type bitsCase struct {
	name  string
	sys   *topol.System
	pos   []vec.V
	opts  ff.Options
	beta  float64 // the Ewald β of ff.New; 0 is SHIFT
	pairs []space.Pair
}

func bitsCases() []bitsCase {
	// (a) the relaxed myoglobin system of the benchmark's seq_md workload,
	// (b) the same after 60 engine steps without Wrap: atoms have left the
	// primary cell, and pairs straddle the periodic faces.
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
	md.Relax(sys, 40)
	relaxed := append([]vec.V(nil), sys.Pos...)
	cfg := md.PMEDefaultConfig()
	cfg.Temperature = 300
	e := md.NewEngine(sys, cfg)
	e.Run(60, nil, nil)
	drifted := append([]vec.V(nil), e.Pos...)

	// (c) a 240-atom water box whose edge is under 2.1 list cutoffs: the
	// raw coordinate difference of a listed pair is beyond 0.49·L on some
	// axis about as often as not.
	small, _ := topol.NewSolvatedBox(240, 3)
	smallCfg := md.ClampCutoffs(md.PMEDefaultConfig(), small.Box)
	if small.Box.L.X >= 2.1*smallCfg.FF.ListCutoff {
		panic("bits oracle: the small box no longer crowds its list cutoff")
	}

	edge, edgePairs := edgeSystem()
	return []bitsCase{
		{name: "myoglobin", sys: sys, pos: relaxed, opts: cfg.FF, beta: cfg.PME.Beta},
		{name: "myoglobin-unwrapped", sys: sys, pos: drifted, opts: cfg.FF, beta: cfg.PME.Beta},
		{name: "smallbox", sys: small, pos: small.Pos, opts: smallCfg.FF, beta: smallCfg.PME.Beta},
		{name: "edges", sys: edge, pos: edge.Pos, opts: ff.DefaultOptions(), beta: cfg.PME.Beta, pairs: edgePairs},
		{name: "edges-shift", sys: edge, pos: edge.Pos, opts: ff.DefaultOptions(), pairs: edgePairs},
	}
}

// edgeSystem is a hand-built unbonded system with every listed pair i<j:
// coordinate differences of exactly 0.49·L and one ulp either side of it on
// each axis and in both signs, contacts below the table's U0, two
// coincident atoms, −0 coordinates against +0, and atoms several box
// lengths outside the primary cell.
func edgeSystem() (*topol.System, []space.Pair) {
	s := &topol.System{
		Box:   space.NewBox(20, 20.2, 20.4),
		Types: topol.StandardTypes(),
	}
	s.Residues = append(s.Residues, topol.Residue{Name: "EDG", First: 0})
	types := []int32{topol.TypeOW, topol.TypeHW, topol.TypeCT, topol.TypeN, topol.TypeO}
	charges := []float64{-0.834, 0.417, 0.1, -0.3, 0}
	add := func(p vec.V) {
		k := len(s.Atoms) % len(types)
		s.Atoms = append(s.Atoms, topol.Atom{Name: "X", Type: types[k], Charge: charges[k]})
		s.Pos = append(s.Pos, p)
	}
	negZero := math.Copysign(0, -1)
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	down := func(v float64) float64 { return math.Nextafter(v, 0) }
	hx, hy, hz := 0.49*s.Box.L.X, 0.49*s.Box.L.Y, 0.49*s.Box.L.Z

	add(vec.New(0, 5, 5)) // the origin of the threshold pairs
	for _, d := range []float64{hx, up(hx), down(hx)} {
		add(vec.New(d, 5.25, 5))
		add(vec.New(-d, 5, 5.25))
	}
	for _, d := range []float64{hy, up(hy), down(hy)} {
		add(vec.New(0.25, 5+d, 5))
		add(vec.New(0, 5-d, 5.25))
	}
	for _, d := range []float64{hz, up(hz), down(hz)} {
		add(vec.New(0.25, 5, 5+d))
		add(vec.New(0, 5.25, 5-d))
	}
	add(vec.New(10, 10, 10)) // three close contacts, r < 1 Å, with and without charge
	add(vec.New(10.3, 10.2, 10.1))
	add(vec.New(9.8, 10.1, 10.3))
	add(vec.New(3, 3, 3)) // coincident
	add(vec.New(3, 3, 3))
	add(vec.New(negZero, 15, 15))
	add(vec.New(0, 15.5, 16))
	add(vec.New(0, negZero, 14))
	add(vec.New(negZero, 0, negZero))
	r := rng.New(19)
	for i := 0; i < 24; i++ {
		add(vec.New(
			r.Range(-1.6*s.Box.L.X, 2.6*s.Box.L.X),
			r.Range(-1.6*s.Box.L.Y, 2.6*s.Box.L.Y),
			r.Range(-1.6*s.Box.L.Z, 2.6*s.Box.L.Z)))
	}
	s.Residues[0].Last = int32(len(s.Atoms))
	s.DeriveConnectivity()

	var pairs []space.Pair
	for i := 0; i < len(s.Atoms); i++ {
		for j := i + 1; j < len(s.Atoms); j++ {
			pairs = append(pairs, space.Pair{I: int32(i), J: int32(j)})
		}
	}
	return s, pairs
}

type bitsHash struct{ h hash.Hash }

func newBitsHash() bitsHash { return bitsHash{sha256.New()} }

func (b bitsHash) uint64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.h.Write(buf[:])
}

func (b bitsHash) floats(v ...float64) {
	for _, f := range v {
		b.uint64(math.Float64bits(f))
	}
}

func (b bitsHash) sum() string { return hex.EncodeToString(b.h.Sum(nil)) }

// computeDigest hashes the energies and forces of one Compute from zeroed
// forces; workers 0 attaches no pool.
func computeDigest(f *ff.ForceField, workers int, pos []vec.V, pairs []space.Pair) string {
	k := f.NewNonbondedKernel()
	if workers > 0 {
		k.SetPool(kernels.NewPool(workers))
	}
	frc := make([]vec.V, len(pos))
	return energyDigest(k.Compute(pos, pairs, frc, nil), frc)
}

// energyDigest hashes the energies and every force component.
func energyDigest(e ff.Energies, frc []vec.V) string {
	h := newBitsHash()
	h.floats(e.Bond, e.Angle, e.Dihedral, e.Improper, e.LJ, e.Elec, e.LJ14, e.Elec14)
	for _, v := range frc {
		h.floats(v.X, v.Y, v.Z)
	}
	return h.sum()
}

// bitsDigests computes every entry of the golden file from the code under
// test.
func bitsDigests() map[string]string {
	out := map[string]string{}
	for _, c := range bitsCases() {
		f := ff.New(c.sys, c.opts, c.beta)
		pairs := c.pairs
		if pairs == nil {
			var w work.Counters
			pairs = f.NewPairLister().Build(c.pos, &w)
			h := newBitsHash()
			for _, p := range pairs {
				h.uint64(uint64(uint32(p.I))<<32 | uint64(uint32(p.J)))
			}
			h.uint64(uint64(w.ListDistEvals))
			out[c.name+"/list"] = h.sum()
		}
		for _, workers := range []int{1, 2, 4} {
			out[fmt.Sprintf("%s/pool%d", c.name, workers)] = computeDigest(f, workers, c.pos, pairs)
		}
		frc := make([]vec.V, len(c.pos))
		out[c.name+"/exact"] = energyDigest(f.Nonbonded(c.pos, pairs, frc, nil), frc)
	}
	return out
}

func TestBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bit-for-bit digests are pinned on amd64 only")
	}
	got := bitsDigests()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(bitsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(bitsGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d digests)", bitsGoldenPath, len(got))
		return
	}
	data, err := os.ReadFile(bitsGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d digests computed, golden holds %d", len(got), len(want))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: in the golden, not computed", key)
		} else if g != w {
			t.Errorf("%s: output bits differ from the golden", key)
		}
	}
}
