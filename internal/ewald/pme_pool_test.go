package ewald

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/kernels"
	"repro/internal/space"
	"repro/internal/vec"
)

func poolTestSystem(n int, box space.Box) (pos []vec.V, charges []float64) {
	rng := rand.New(rand.NewSource(7))
	pos = make([]vec.V, n)
	charges = make([]float64, n)
	for i := range pos {
		pos[i] = vec.New(rng.Float64()*box.L.X, rng.Float64()*box.L.Y, rng.Float64()*box.L.Z)
		charges[i] = rng.Float64() - 0.5
	}
	// A few zero charges exercise the skip paths.
	charges[0], charges[n/2] = 0, 0
	return pos, charges
}

func recipOnce(t *testing.T, workers int, pos []vec.V, charges []float64, box space.Box) (float64, []vec.V) {
	t.Helper()
	p := NewPME(box, 0.34, 40, 18, 24, 4)
	if workers > 0 {
		p.SetPool(kernels.NewPool(workers))
	}
	frc := make([]vec.V, len(pos))
	e := p.Recip(pos, charges, frc, nil)
	return e, frc
}

// The pooled reciprocal pipeline must produce byte-identical energies and
// forces at every worker count: the shard decomposition is fixed, shards
// merge in fixed order, and the parity-chunked spread gives every grid
// point a fixed deposit order.
func TestRecipPooledBitwiseStableAcrossWorkers(t *testing.T) {
	box := space.NewBox(20, 18, 22)
	pos, charges := poolTestSystem(600, box)
	wantE, wantF := recipOnce(t, 1, pos, charges, box)
	for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0) + 1, 19} {
		e, frc := recipOnce(t, workers, pos, charges, box)
		if e != wantE {
			t.Fatalf("workers=%d: energy %x != 1-worker %x", workers, e, wantE)
		}
		for i := range frc {
			if frc[i] != wantF[i] {
				t.Fatalf("workers=%d: frc[%d] = %v != %v", workers, i, frc[i], wantF[i])
			}
		}
	}
}

// The pooled pipeline is a different association of the same sums as the
// serial complex oracle; it must agree with it to roundoff.
func TestRecipPooledMatchesSerialToRoundoff(t *testing.T) {
	box := space.NewBox(20, 18, 22)
	pos, charges := poolTestSystem(600, box)
	serialF := make([]vec.V, len(pos))
	serialE, _ := complexRecip(NewPME(box, 0.34, 40, 18, 24, 4), pos, charges, serialF)
	pooledE, pooledF := recipOnce(t, 4, pos, charges, box)
	if d := math.Abs(pooledE-serialE) / math.Abs(serialE); d > 1e-10 {
		t.Fatalf("pooled energy %v vs serial %v (rel %g)", pooledE, serialE, d)
	}
	for i := range serialF {
		if d := pooledF[i].Sub(serialF[i]).Norm(); d > 1e-8 {
			t.Fatalf("frc[%d] pooled %v vs serial %v (|Δ| %g)", i, pooledF[i], serialF[i], d)
		}
	}
}

// serialSpread is the plain spread: every charged atom in index order
// deposits its order³ support onto grid.
func serialSpread(p *PME, pos []vec.V, charges []float64, grid []float64) {
	order := p.Order
	w1, w2, w3 := make([]float64, order), make([]float64, order), make([]float64, order)
	dw := make([]float64, order)
	for i, r := range pos {
		q := charges[i]
		if q == 0 {
			continue
		}
		f := p.Box.Frac(r)
		k01 := splineWeights(order, f.X*float64(p.K1), w1, dw)
		k02 := splineWeights(order, f.Y*float64(p.K2), w2, dw)
		k03 := splineWeights(order, f.Z*float64(p.K3), w3, dw)
		for a := 0; a < order; a++ {
			for b := 0; b < order; b++ {
				base := (mod(k01+a, p.K1)*p.K2 + mod(k02+b, p.K2)) * p.K3
				for c := 0; c < order; c++ {
					grid[base+mod(k03+c, p.K3)] += q * w1[a] * w2[b] * w3[c]
				}
			}
		}
	}
}

// The parity-chunked spread must deposit exactly the same per-atom
// contributions as the serial spread: the total charge on the grid and
// each grid point's value agree to roundoff, and repeated pooled runs are
// bitwise identical. A mesh too narrow for four chunks is one chunk, and
// that is the serial spread bit for bit.
func TestSpreadChunkedMatchesSerial(t *testing.T) {
	box := space.NewBox(20, 18, 22)
	pos, charges := poolTestSystem(400, box)
	pooled := NewPME(box, 0.34, 40, 18, 24, 4)
	pooled.SetPool(kernels.NewPool(4))
	if pooled.nChunks < 4 {
		t.Fatal("paper-scale mesh should enable chunked spread")
	}
	gs := make([]float64, pooled.GridLen())
	gp := make([]float64, pooled.GridLen())
	serialSpread(pooled, pos, charges, gs)
	pooled.Spread(pos, charges, 0, len(pos), gp)
	var sumS, sumP float64
	for i := range gs {
		sumS += gs[i]
		sumP += gp[i]
		if d := gs[i] - gp[i]; math.Abs(d) > 1e-12 {
			t.Fatalf("grid[%d]: serial %v pooled %v", i, gs[i], gp[i])
		}
	}
	if math.Abs(sumS-sumP) > 1e-10 {
		t.Fatalf("grid charge sums differ: %v vs %v", sumS, sumP)
	}
	// Bitwise repeatability of the pooled spread itself.
	gp2 := make([]float64, pooled.GridLen())
	pooled.Spread(pos, charges, 0, len(pos), gp2)
	for i := range gp {
		if gp[i] != gp2[i] {
			t.Fatalf("pooled spread not repeatable at grid[%d]", i)
		}
	}

	narrow := NewPME(box, 0.34, 12, 18, 24, 4)
	narrow.SetPool(kernels.NewPool(4))
	if narrow.nChunks != 1 {
		t.Fatalf("a 12-plane mesh at order 4 has %d chunks, want 1", narrow.nChunks)
	}
	gs = make([]float64, narrow.GridLen())
	gp = make([]float64, narrow.GridLen())
	serialSpread(narrow, pos, charges, gs)
	narrow.Spread(pos, charges, 0, len(pos), gp)
	for i := range gs {
		if gs[i] != gp[i] {
			t.Fatalf("one-chunk grid[%d]: serial %v, Spread %v", i, gs[i], gp[i])
		}
	}
}

// Recip's buffers and the shard scratch are sized by the first call; the
// steady state must not allocate.
func TestPooledRecipDoesNotAllocateSteadyState(t *testing.T) {
	box := space.NewBox(20, 18, 22)
	pos, charges := poolTestSystem(400, box)
	p := NewPME(box, 0.34, 40, 18, 24, 4)
	p.SetPool(kernels.NewPool(1)) // 1 worker: inline execution
	frc := make([]vec.V, len(pos))
	p.Recip(pos, charges, frc, nil) // warm the buffers and chunk buckets
	allocs := testing.AllocsPerRun(10, func() {
		p.Recip(pos, charges, frc, nil)
	})
	if allocs > 0 {
		t.Fatalf("pooled Recip allocates %v per call in steady state", allocs)
	}
}

// SetPool allocates none of Recip's buffers: the per-rank PMEs of the
// parallel engine only spread and interpolate.
func TestSetPoolLeavesRecipBuffersUnallocated(t *testing.T) {
	p := NewPME(space.NewBox(20, 18, 22), 0.34, 40, 18, 24, 4)
	p.SetPool(kernels.NewPool(4))
	if p.rgrid != nil || p.spec != nil || p.eCoefH != nil {
		t.Fatal("SetPool allocated Recip's grid, spectrum or influence tables")
	}
}
