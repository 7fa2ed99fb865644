// Package kernels provides the bounded worker pool the physics kernels
// shard their hot loops over, with a strict determinism contract: the
// result of a sharded computation depends only on the shard decomposition,
// never on the worker count or the scheduler. A kernel splits its work
// into shards whose number is a pure function of the problem shape (the
// mesh, the atom count, the pair count — never the worker count), gives
// every shard its own scratch and accumulators, and merges the per-shard
// results in ascending shard order. Workers only decide which goroutine
// executes a shard — all arithmetic and every cross-shard reduction
// happens in a fixed order, so a kernel produces byte-identical results
// inline, at 1, 2, or N workers.
//
// This is the only arithmetic the kernels have: there is no separate
// serial path. A nil pool and a one-worker pool run the same shards
// inline, one after another.
package kernels

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ShardCount is the widest decomposition kernels use for
// worker-count-independent sharding of atom ranges, mesh ranges and pair
// blocks. It is deliberately a package constant: baking it into the
// decomposition (and not the worker count) is what makes results
// identical at any -kernel-workers value. 16 keeps per-shard accumulator
// memory small while giving useful parallelism up to 16 cores.
const ShardCount = 16

// Pool bounds how many shards of a kernel invocation execute
// concurrently. The zero-cost design: Run spawns at most workers-1
// short-lived helper goroutines per invocation and participates itself,
// with shards claimed off a shared atomic counter. There are no
// persistent goroutines, so a Pool needs no Close and cannot leak — an
// idle pool is just a small struct. The expensive per-worker state
// (per-shard force accumulators, FFT line buffers, spline scratch) lives
// inside the kernels themselves and is reused across steps, which is
// what preserves the steady-state allocation behaviour of the hot path.
//
// A nil *Pool is valid everywhere and means "run serially inline"; a
// pool with Workers()==1 behaves identically. Run may be called
// concurrently from independent goroutines (the per-rank simulated
// engines share one pool); a single Run's fn must not call Run on the
// same pool recursively — kernels never nest.
type Pool struct {
	workers int

	gauge *obs.Gauge                    // repro_kernel_workers, when attached
	hist  atomic.Pointer[obs.Histogram] // shard imbalance, when attached
}

// Mark, when set, sees the helper goroutines of every pooled Run, all
// pools together: it is called with +1 before a helper starts and with −1
// as it ends, so the running sum is the number of helpers in flight.
// Tests set it, while no pool runs, to take the peak of that sum; unset,
// it costs a pooled Run one load.
var Mark func(delta int)

// NewPool returns a pool that runs up to workers shards concurrently.
// workers <= 0 is treated as 1 (serial).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Workers reports the configured concurrency bound. A nil pool reports 0.
func (p *Pool) Workers() int {
	if p == nil {
		return 0
	}
	return p.workers
}

// SetObs exports the pool's configuration and behaviour into reg:
// repro_kernel_workers (gauge, the concurrency bound) and
// repro_kernel_shard_imbalance_ratio (histogram of max/mean shard wall
// time per pooled invocation — 1.0 is perfect balance). Shard timing is
// only measured while a registry is attached, so unobserved runs pay no
// clock overhead. SetObs(nil) detaches.
func (p *Pool) SetObs(reg *obs.Registry) {
	if p == nil {
		return
	}
	if reg == nil {
		p.hist.Store(nil)
		return
	}
	p.gauge = reg.Gauge("repro_kernel_workers",
		"Configured deterministic kernel pool width (1 = shards run inline).")
	p.gauge.Set(float64(p.workers))
	p.hist.Store(reg.Histogram("repro_kernel_shard_imbalance_ratio",
		"Max/mean shard wall time per pooled kernel invocation (1.0 = perfectly balanced).",
		obs.ExpBuckets(1.0, 1.3, 10)))
}

// Run executes fn(0) … fn(n-1), at most Workers() at a time, and returns
// once every shard has completed. Shards are claimed dynamically (an
// imbalanced shard does not idle the other workers), which is safe
// because shard *assignment* never affects results — each fn(i) owns
// shard i's scratch exclusively while it runs, and all merging happens
// in index order, in the caller afterwards or (the pair kernel's fold)
// by whichever fn finds the next shard in order finished. With a nil
// pool, one worker, or n == 1 the
// loop runs inline with zero goroutines and zero allocations.
func (p *Pool) Run(n int, fn func(shard int)) {
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var hist *obs.Histogram
	if p != nil {
		hist = p.hist.Load()
	}
	var durs []int64
	if hist != nil {
		durs = make([]int64, n)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	mark := Mark
	for i := 0; i < w-1; i++ {
		wg.Add(1)
		if mark != nil {
			mark(+1)
		}
		go func() {
			defer wg.Done()
			drain(&next, int64(n), fn, durs)
			if mark != nil {
				mark(-1)
			}
		}()
	}
	drain(&next, int64(n), fn, durs)
	wg.Wait()
	if hist != nil {
		observeImbalance(hist, durs)
	}
}

func drain(next *atomic.Int64, n int64, fn func(int), durs []int64) {
	for {
		i := next.Add(1) - 1
		if i >= n {
			return
		}
		if durs != nil {
			t0 := time.Now()
			fn(int(i))
			durs[i] = time.Since(t0).Nanoseconds()
		} else {
			fn(int(i))
		}
	}
}

func observeImbalance(h *obs.Histogram, durs []int64) {
	var sum, max int64
	for _, d := range durs {
		sum += d
		if d > max {
			max = d
		}
	}
	if sum <= 0 {
		return
	}
	mean := float64(sum) / float64(len(durs))
	h.Observe(float64(max) / mean)
}

// Partition splits n items into p contiguous blocks as evenly as
// possible and returns the p+1 block offsets, reusing off's backing
// array when it has capacity (callers on hot paths keep the slice
// between invocations so steady state allocates nothing). Offsets are a
// pure function of (n, p) — the same decomposition on every host at
// every worker count.
func Partition(n, p int, off []int) []int {
	if p < 1 {
		p = 1
	}
	if cap(off) < p+1 {
		off = make([]int, p+1)
	}
	off = off[:p+1]
	base, rem := n/p, n%p
	off[0] = 0
	for i := 0; i < p; i++ {
		sz := base
		if i < rem {
			sz++
		}
		off[i+1] = off[i] + sz
	}
	return off
}
