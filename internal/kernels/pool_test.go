package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// Every shard must run exactly once, at every worker count, including
// nil pools, n < workers, and n == 0.
func TestRunCoversEveryShardOnce(t *testing.T) {
	pools := []*Pool{nil, NewPool(0), NewPool(1), NewPool(2), NewPool(7), NewPool(runtime.GOMAXPROCS(0) + 3)}
	for _, p := range pools {
		for _, n := range []int{0, 1, 2, 5, 16, 61} {
			counts := make([]int32, n)
			p.Run(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: shard %d ran %d times", p.Workers(), n, i, c)
				}
			}
		}
	}
}

func TestWorkers(t *testing.T) {
	if w := (*Pool)(nil).Workers(); w != 0 {
		t.Fatalf("nil pool Workers = %d, want 0", w)
	}
	if w := NewPool(-3).Workers(); w != 1 {
		t.Fatalf("NewPool(-3).Workers = %d, want 1", w)
	}
	if w := NewPool(6).Workers(); w != 6 {
		t.Fatalf("Workers = %d, want 6", w)
	}
}

// The determinism contract in miniature: a sharded sum whose partials are
// merged in shard order must be bitwise identical at every worker count.
func TestShardedReductionBitwiseStable(t *testing.T) {
	const n = 10_000
	xs := make([]float64, n)
	s := uint64(0x9e3779b97f4a7c15)
	for i := range xs {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		xs[i] = float64(s%1_000_003)/1e6 - 0.5
	}
	sum := func(workers int) float64 {
		p := NewPool(workers)
		off := Partition(n, ShardCount, nil)
		parts := make([]float64, ShardCount)
		p.Run(ShardCount, func(sh int) {
			var acc float64
			for i := off[sh]; i < off[sh+1]; i++ {
				acc += xs[i]
			}
			parts[sh] = acc
		})
		var total float64
		for _, v := range parts {
			total += v
		}
		return total
	}
	want := sum(1)
	for _, w := range []int{2, 3, runtime.GOMAXPROCS(0), 13} {
		if got := sum(w); got != want {
			t.Fatalf("workers=%d: sum %x differs from 1-worker sum %x", w, got, want)
		}
	}
}

// Independent engines (pmd ranks) share one pool; concurrent Runs must
// not interfere.
func TestConcurrentRuns(t *testing.T) {
	p := NewPool(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				var total atomic.Int64
				p.Run(ShardCount, func(i int) { total.Add(int64(i)) })
				if got := total.Load(); got != ShardCount*(ShardCount-1)/2 {
					t.Errorf("partial run: got %d", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPartition(t *testing.T) {
	cases := []struct{ n, p int }{{0, 4}, {1, 4}, {7, 3}, {16, 16}, {100, 7}, {5, 1}, {3, 0}}
	for _, c := range cases {
		off := Partition(c.n, c.p, nil)
		p := c.p
		if p < 1 {
			p = 1
		}
		if len(off) != p+1 || off[0] != 0 || off[p] != c.n {
			t.Fatalf("Partition(%d,%d) = %v", c.n, c.p, off)
		}
		for i := 0; i < p; i++ {
			sz := off[i+1] - off[i]
			if sz < c.n/p || sz > c.n/p+1 {
				t.Fatalf("Partition(%d,%d) block %d has size %d", c.n, c.p, i, sz)
			}
		}
	}
	// Buffer reuse: a large-enough slice is reused, not reallocated.
	buf := make([]int, 9)
	out := Partition(10, 8, buf)
	if &out[0] != &buf[0] {
		t.Fatal("Partition did not reuse the provided buffer")
	}
}

func TestObsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(3)
	p.SetObs(reg)
	p.Run(8, func(int) {})
	if v := reg.Value("repro_kernel_workers"); v != 3 {
		t.Fatalf("repro_kernel_workers = %v, want 3", v)
	}
	h := p.hist.Load()
	if h == nil {
		t.Fatal("imbalance histogram not attached")
	}
	p.SetObs(nil)
	if p.hist.Load() != nil {
		t.Fatal("SetObs(nil) did not detach the histogram")
	}
}

// TestPoolMarkSeesEveryHelper: Mark sees each helper of a pooled Run
// start and end — a four-worker Run whose shards wait for one another has
// three in flight at its peak, none once it returns — and a one-worker Run
// none.
func TestPoolMarkSeesEveryHelper(t *testing.T) {
	var inFlight, peak atomic.Int64
	Mark = func(delta int) {
		if n := inFlight.Add(int64(delta)); n > peak.Load() {
			peak.Store(n)
		}
	}
	defer func() { Mark = nil }()
	var arrived sync.WaitGroup
	arrived.Add(4)
	NewPool(4).Run(4, func(int) {
		arrived.Done()
		arrived.Wait() // every shard in flight at once
	})
	NewPool(1).Run(4, func(int) {})
	if peak.Load() != 3 || inFlight.Load() != 0 {
		t.Fatalf("peak %d helpers in flight, %d after the Runs; want 3 and 0", peak.Load(), inFlight.Load())
	}
}
