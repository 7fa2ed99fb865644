package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean = %v, want ≈0.5", mean)
	}
}

func TestIntn(t *testing.T) {
	r := New(3)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Fatalf("Intn bucket %d count %d far from uniform", v, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestNormalScaled(t *testing.T) {
	r := New(9)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.NormalScaled(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Fatalf("scaled mean = %v", mean)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.Exponential(3)
		if x < 0 {
			t.Fatalf("negative exponential draw %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-3) > 0.05 {
		t.Fatalf("exponential mean = %v", mean)
	}
}

func TestRange(t *testing.T) {
	r := New(17)
	for i := 0; i < 1000; i++ {
		v := r.Range(-5, 5)
		if v < -5 || v >= 5 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func TestPerm(t *testing.T) {
	r := New(19)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestReseedRestoresStream(t *testing.T) {
	r := New(99)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(99)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after Reseed draw %d = %d, want %d", i, got, first[i])
		}
	}
}
