package fft

import (
	"math"
	"sync"
	"testing"

	"repro/internal/kernels"
)

// A serial transform of any plan kind runs in its plan's scratch: after the
// first call has sized it, Forward and Inverse allocate nothing. 37 and 74
// route through Bluestein.
func TestSerialTransformsDoNotAllocate(t *testing.T) {
	cases := map[string]func() func(){
		"Plan/48": func() func() {
			p, x := NewPlan(48), make([]complex128, 48)
			return func() { p.Forward(x); p.Inverse(x) }
		},
		"Plan/37": func() func() {
			p, x := NewPlan(37), make([]complex128, 37)
			return func() { p.Forward(x); p.Inverse(x) }
		},
		"Plan.Lines/80x48": func() func() {
			p, x := NewPlan(80), make([]complex128, 80*48)
			return func() { p.ForwardLines(x, 0, 48, 48); p.InverseLines(x, 0, 48, 48) }
		},
		"RealPlan/80": func() func() {
			p, x, spec := NewRealPlan(80), make([]float64, 80), make([]complex128, 41)
			return func() { p.Forward(x, spec); p.Inverse(spec, x) }
		},
		"RealPlan/74": func() func() {
			p, x, spec := NewRealPlan(74), make([]float64, 74), make([]complex128, 38)
			return func() { p.Forward(x, spec); p.Inverse(spec, x) }
		},
		"Plan2D/36x48": func() func() {
			p, x := NewPlan2D(36, 48), make([]complex128, 36*48)
			return func() { p.Forward(x); p.Inverse(x) }
		},
		"Plan3D/8x37x10": func() func() {
			p, x := NewPlan3D(8, 37, 10), make([]complex128, 8*37*10)
			return func() { p.Forward(x); p.Inverse(x) }
		},
		"RealPlan3D/80x36x48": func() func() {
			p, err := NewRealPlan3D(80, 36, 48)
			if err != nil {
				t.Fatal(err)
			}
			x, spec := make([]float64, p.Len()), make([]complex128, p.SpectrumLen())
			return func() { p.Forward(x, spec); p.Inverse(spec, x) }
		},
	}
	for name, build := range cases {
		roundTrip := build()
		if allocs := testing.AllocsPerRun(5, roundTrip); allocs != 0 {
			t.Errorf("%s: %v allocations per round trip", name, allocs)
		}
	}
}

// SetPool promises an allocation-free hot path: the shard functions are
// bound once, so a pooled round trip costs what its four pool.Run calls
// cost by themselves (the helper goroutines) and nothing on top.
func TestPooledRealPlan3DAllocatesNoMoreThanBarePoolRuns(t *testing.T) {
	pool := kernels.NewPool(4)
	p, err := NewRealPlan3D(80, 36, 48)
	if err != nil {
		t.Fatal(err)
	}
	p.SetPool(pool)
	x, spec := make([]float64, p.Len()), make([]complex128, p.SpectrumLen())
	nop := func(int) {}
	bare := testing.AllocsPerRun(20, func() {
		pool.Run(p.lineShards(), nop)
		pool.Run(p.planeShards(), nop)
		pool.Run(p.planeShards(), nop)
		pool.Run(p.lineShards(), nop)
	})
	pooled := testing.AllocsPerRun(20, func() {
		p.Forward(x, spec)
		p.Inverse(spec, x)
	})
	if pooled > bare {
		t.Fatalf("pooled round trip allocates %v, its four bare pool.Run calls %v", pooled, bare)
	}
}

// Plans of one length share one set of tables: the same perm and twiddle
// backing arrays, whoever built them — directly, inside a 2-D plan, or as a
// pooled shard's clone.
func TestPlansOfOneLengthShareTables(t *testing.T) {
	a, b := NewPlan(80), NewPlan(80)
	if a.t != b.t || &a.t.perm[0] != &b.t.perm[0] || &a.t.levels[0].tw[0] != &b.t.levels[0].tw[0] {
		t.Fatal("two plans of length 80 hold separate tables")
	}
	if p2 := NewPlan2D(80, 36); p2.py.t != a.t {
		t.Fatal("a 2-D plan's length-80 axis does not share the 1-D plan's tables")
	}
	p, err := NewRealPlan3D(80, 36, 48)
	if err != nil {
		t.Fatal(err)
	}
	p.SetPool(kernels.NewPool(2))
	for i, sh := range p.shards {
		if sh.rpx.half.t != p.rpx.half.t || sh.plane.py.t != p.plane.py.t || sh.plane.pz.t != p.plane.pz.t {
			t.Fatalf("shard %d holds its own tables", i)
		}
	}
	if x, y := NewPlan(37), NewPlan(37); x.t.chirp != y.t.chirp || x.conv == y.conv {
		t.Fatal("Bluestein plans must share the chirp and own their convolution plan")
	}
}

// Simulated ranks build their plans from several host goroutines at once.
// Whoever builds a length first, every plan ends up on one set of tables,
// and transforming through them concurrently (each plan on its own scratch)
// is race-free. 222 = 2·3·37 takes the Bluestein route.
func TestTablesMemoConcurrentBuilders(t *testing.T) {
	lengths := []int{210, 222, 330, 390}
	const builders = 8
	plans := make([][]*Plan, builders)
	var wg sync.WaitGroup
	for g := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range lengths {
				p := NewPlan(n)
				x := make([]complex128, n)
				x[1] = 1
				p.Forward(x)
				p.Inverse(x)
				if d := x[1] - 1; math.Abs(real(d))+math.Abs(imag(d)) > 1e-12 {
					t.Errorf("n=%d: round trip of an impulse returned %v", n, x[1])
				}
				plans[g] = append(plans[g], p)
			}
		}()
	}
	wg.Wait()
	for g := range plans {
		for i, p := range plans[g] {
			if p.t != plans[0][i].t {
				t.Fatalf("n=%d: builder %d holds tables of its own", lengths[i], g)
			}
		}
	}
}

// Ops is a modelled quantity: virtual time is charged from it, so the
// integers recorded from the recursive implementation for the paper's
// 80×36×48 mesh must never move.
func TestOpsPinnedForPaperMesh(t *testing.T) {
	r3, err := NewRealPlan3D(80, 36, 48)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"Plan(80)", NewPlan(80).Ops(), 2528},
		{"Plan(36)", NewPlan(36).Ops(), 930},
		{"Plan(48)", NewPlan(48).Ops(), 1340},
		{"Plan(37) Bluestein", NewPlan(37).Ops(), 14464},
		{"RealPlan(80)", NewRealPlan(80).Ops(), 1392},
		{"Plan2D(36,48)", NewPlan2D(36, 48).Ops(), 92880},
		{"Plan3D(80,36,48)", NewPlan3D(80, 36, 48).Ops(), 11798784},
		{"Ops3D(80,36,48)", Ops3D(80, 36, 48), 11798784},
		{"RealPlan3D(80,36,48)", r3.Ops(), 6213456},
	} {
		if c.got != c.want {
			t.Errorf("%s: Ops = %d, recorded %d", c.name, c.got, c.want)
		}
	}
}

// Ops(n) answers from the length alone. It must agree with what a built
// plan actually is: the smooth count for a plan with butterfly levels, the
// three-convolution count at the built chirp's size for a Bluestein plan.
func TestOpsFromLengthMatchesBuiltPlan(t *testing.T) {
	for n := 1; n <= 200; n++ {
		p := NewPlan(n)
		want := int64(1)
		switch c := p.t.chirp; {
		case c != nil:
			m := float64(c.m)
			want = int64(3*5*m*math.Log2(m) + 8*m)
		case n >= 2:
			want = int64(5 * float64(n) * math.Log2(float64(n)))
		}
		if got := Ops(n); got != want || p.Ops() != want {
			t.Errorf("n=%d: Ops(n) = %d, plan.Ops() = %d, built plan implies %d", n, got, p.Ops(), want)
		}
	}
}
