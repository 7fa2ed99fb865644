package fft

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/kernels"
)

// The bits oracle. testdata/bits_golden.json holds one SHA-256 per plan
// kind and size over the math.Float64bits of Forward and Inverse outputs.
// It was captured from the recursive, modulo-per-multiply implementation
// that preceded the planned one, so it pins the planned butterflies to that
// implementation's exact sums — the same products added in the same order —
// including signed zeros and subnormals. Every trajectory, figure and
// profile golden in the repository rests on these bits.
//
// The comparison is amd64-only: a target that fuses x*y+z may round an
// equal expression differently. The tolerance tests cover everyone else.
// UPDATE_GOLDEN=1 rewrites the file; do that only to add cases, from a
// tree where this test passes.

const bitsGoldenPath = "testdata/bits_golden.json"

// bitsLengths are the 1-D lengths under the oracle: every length to 64 the
// package transforms, the PME-like smooth sizes, and 154 = 2·7·11 and
// 124 = 4·31 for the generic radix loop.
func bitsLengths() []int {
	var ns []int
	for n := 1; n <= 64; n++ {
		if Smooth(n) {
			ns = append(ns, n)
		}
	}
	return append(ns, 72, 80, 96, 100, 128, 154, 124)
}

// bitsInputs returns the three seeded inputs of n values: normal deviates,
// all zeros, and a mix of −0, +0, subnormals and normal values.
func bitsInputs(seed int64, n int) [3][]float64 {
	rng := rand.New(rand.NewSource(seed))
	normal := make([]float64, n)
	for i := range normal {
		normal[i] = rng.NormFloat64()
	}
	special := make([]float64, n)
	for i := range special {
		switch rng.Intn(8) {
		case 0:
			special[i] = math.Copysign(0, -1)
		case 1:
			special[i] = 0
		case 2:
			special[i] = math.SmallestNonzeroFloat64
		case 3:
			special[i] = -math.SmallestNonzeroFloat64
		case 4:
			special[i] = 1e-310 * rng.NormFloat64()
		default:
			special[i] = rng.NormFloat64()
		}
	}
	return [3][]float64{normal, make([]float64, n), special}
}

func toComplex(v []float64) []complex128 {
	c := make([]complex128, len(v)/2)
	for i := range c {
		c[i] = complex(v[2*i], v[2*i+1])
	}
	return c
}

type bitsHash struct{ h hash.Hash }

func newBitsHash() bitsHash { return bitsHash{sha256.New()} }

func (b bitsHash) floats(v []float64) {
	var buf [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		b.h.Write(buf[:])
	}
}

func (b bitsHash) complexes(v []complex128) {
	var buf [16]byte
	for _, c := range v {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(real(c)))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(c)))
		b.h.Write(buf[:])
	}
}

func (b bitsHash) sum() string { return hex.EncodeToString(b.h.Sum(nil)) }

// complexDigest hashes Forward and Inverse of the three seeded inputs of
// an in-place complex transform of total length n.
func complexDigest(seed int64, n int, forward, inverse func([]complex128)) string {
	h := newBitsHash()
	for _, in := range bitsInputs(seed, 2*n) {
		x := toComplex(in)
		forward(x)
		h.complexes(x)
		x = toComplex(in)
		inverse(x)
		h.complexes(x)
	}
	return h.sum()
}

// realDigest is complexDigest for a real transform of n samples with a
// specLen-bin half spectrum: Forward of the seeded real inputs, Inverse of
// seeded spectra.
func realDigest(realSeed, specSeed int64, n, specLen int, forward func([]float64, []complex128), inverse func([]complex128, []float64)) string {
	h := newBitsHash()
	reals := bitsInputs(realSeed, n)
	specs := bitsInputs(specSeed, 2*specLen)
	for i := range reals {
		spec := make([]complex128, specLen)
		forward(reals[i], spec)
		h.complexes(spec)
		x := make([]float64, n)
		inverse(toComplex(specs[i]), x)
		h.floats(x)
	}
	return h.sum()
}

// bitsDigests computes every entry of the golden file from the code under
// test.
func bitsDigests() map[string]string {
	out := map[string]string{}
	for _, n := range bitsLengths() {
		p := NewPlan(n)
		out[fmt.Sprintf("plan/%d", n)] = complexDigest(int64(n), n, p.Forward, p.Inverse)
		if n%2 != 0 {
			continue
		}
		rp := NewRealPlan(n)
		out[fmt.Sprintf("real/%d", n)] = realDigest(int64(1000+n), int64(2000+n), n, rp.SpectrumLen(), rp.Forward, rp.Inverse)
	}
	for _, d := range [][2]int{{36, 48}, {5, 7}} {
		p := NewPlan2D(d[0], d[1])
		out[fmt.Sprintf("plan2d/%dx%d", d[0], d[1])] = complexDigest(3000, d[0]*d[1], p.Forward, p.Inverse)
	}
	p3 := NewPlan3D(8, 6, 10)
	out["plan3d/8x6x10"] = complexDigest(4000, p3.Len(), p3.Forward, p3.Inverse)
	for _, d := range [][3]int{{80, 36, 48}, {8, 6, 10}} {
		name := fmt.Sprintf("real3d/%dx%dx%d", d[0], d[1], d[2])
		for _, workers := range []int{0, 1, 2, 4} {
			p, err := NewRealPlan3D(d[0], d[1], d[2])
			if err != nil {
				panic(err)
			}
			key := name + "/serial"
			if workers > 0 {
				p.SetPool(kernels.NewPool(workers))
				key = fmt.Sprintf("%s/pool%d", name, workers)
			}
			out[key] = realDigest(5000, 5001, p.Len(), p.SpectrumLen(), p.Forward, p.Inverse)
		}
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
