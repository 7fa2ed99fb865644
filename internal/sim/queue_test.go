package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// refQueue is the one-heap order the two lanes must reproduce: every
// queued event, popped by (at, seq).
type refQueue []event

func (r *refQueue) pop() event {
	best := 0
	for i := range *r {
		if (*r)[i].before(&(*r)[best]) {
			best = i
		}
	}
	ev := (*r)[best]
	*r = append((*r)[:best], (*r)[best+1:]...)
	return ev
}

// TestEventQueueOrdersLikeOneHeap pushes the way Env does — a fresh seq
// due now (a spawn, an unpark, a zero advance) or due later — with the
// clock moved by each pop, and demands every pop of one sorted queue. Every
// push due now must land in the now lane: push relies on a wakeup due now
// carrying the newest seq.
func TestEventQueueOrdersLikeOneHeap(t *testing.T) {
	lanePushes, nowPushes := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref refQueue
		var now float64
		var seq int64
		delays := []float64{0.5, 1, 1, 2.5}
		for op := 0; op < 2000; op++ {
			p := &Proc{}
			switch k := rnd.Intn(10); {
			case k < 4: // due now
				seq++
				p.wakeAt, p.seq = now, seq
				nowPushes++
			case k < 6: // due later
				seq++
				p.wakeAt, p.seq = now+delays[rnd.Intn(len(delays))], seq
			default:
				if q.len() != len(ref) {
					t.Fatalf("seed %d op %d: %d queued, want %d", seed, op, q.len(), len(ref))
				}
				if len(ref) == 0 {
					continue
				}
				got, want := q.pop(), ref.pop()
				if got != want {
					t.Fatalf("seed %d op %d: pop (%v, %d), want (%v, %d)",
						seed, op, got.at, got.seq, want.at, want.seq)
				}
				now = got.at
				continue
			}
			n := q.n
			q.push(p, now)
			if q.n > n {
				lanePushes++
			}
			ref = append(ref, event{at: p.wakeAt, seq: p.seq, p: p})
		}
	}
	if lanePushes != nowPushes {
		t.Fatalf("%d of %d pushes due now landed in the now lane", lanePushes, nowPushes)
	}
	if lanePushes < 50000 {
		t.Fatalf("%d lane pushes; the generator lost its mix", lanePushes)
	}
}

// before is the (at, seq) order the queue pops in.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// binHeap is the binary heap the event queue replaced, kept as the fuzz
// oracle: a min-heap on (at, seq).
type binHeap []event

func (h binHeap) Len() int           { return len(h) }
func (h binHeap) Less(i, j int) bool { return h[i].before(&h[j]) }
func (h binHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *binHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *binHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// FuzzEventQueue pushes a monotone (at, seq) stream into the event queue
// and into a binary heap and requires the same pops. Each input byte is
// one operation: a push due now, a push due a short delay later from a
// table whose repeats make ties, a push due a gap of 2^-30 to 2^33 seconds
// later, which forces redistributions across many key bits, or a pop
// that moves the clock; the queue is drained at the end.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 1, 5, 2, 3, 3, 0, 0, 3, 3, 3})
	f.Add([]byte{2, 6, 130, 254, 3, 0, 0, 1, 3, 0, 3, 3, 3, 3})
	f.Add([]byte{1, 1, 1, 5, 5, 9, 3, 0, 0, 3, 1, 3, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q eventQueue
		var ref binHeap
		var now float64
		var seq int64
		pops := 0
		pop := func() {
			got, want := q.pop(), heap.Pop(&ref).(event)
			if got != want {
				t.Fatalf("pop %d: (%v, %d), want (%v, %d)", pops, got.at, got.seq, want.at, want.seq)
			}
			pops++
			now = got.at
		}
		for _, c := range ops {
			var at float64
			switch c % 4 {
			case 0:
				at = now
			case 1:
				at = now + []float64{0.5, 1, 1, 2.5}[c>>2&3]
			case 2:
				at = now + math.Ldexp(1, int(c>>2)%64-30)
			case 3:
				if len(ref) > 0 {
					pop()
				}
				continue
			}
			seq++
			p := &Proc{wakeAt: at, seq: seq}
			q.push(p, now)
			heap.Push(&ref, event{at: at, seq: seq, p: p})
			if q.len() != len(ref) {
				t.Fatalf("%d queued, want %d", q.len(), len(ref))
			}
		}
		for len(ref) > 0 {
			pop()
		}
		if q.len() != 0 {
			t.Fatalf("%d left after the heap drained", q.len())
		}
	})
}

// TestPushDueNowAppends: with wakeups pending in the higher buckets, a
// push due now is an append to bucket 0 that leaves every other bucket as
// it was, and its pops drain bucket 0 in seq order without a
// redistribution. Once the node array has grown, such pushes and pops allocate
// nothing.
func TestPushDueNowAppends(t *testing.T) {
	var q eventQueue
	var p Proc // the queue copies the key, so one process serves every push
	for _, at := range []float64{1, 2, 3, 0.5, 64} {
		p.seq++
		p.wakeAt = at
		q.push(&p, 0)
	}
	now := q.pop().at // redistributes: 0.5 is due now
	if now != 0.5 || q.n != 0 {
		t.Fatalf("popped %v with %d left due then; want 0.5 and 0", now, q.n)
	}
	pending := q.size
	type snapshot struct {
		last, full uint64
		first, end [64]int32
	}
	snap := func() snapshot {
		s := snapshot{last: q.last, full: q.full}
		copy(s.first[:], q.first[1:])
		copy(s.end[:], q.end[1:])
		return s
	}
	before := snap()
	want := p.seq + 1
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			p.seq++
			p.wakeAt = now
			q.push(&p, now)
			if q.n != i+1 || q.nodes[q.end[0]-1].ev.seq != p.seq {
				t.Fatalf("push %d due now: bucket 0 holds %d events and does not end with it", i, q.n)
			}
		}
		for i := 0; i < n; i++ {
			if ev := q.pop(); ev.seq != want || ev.at != now {
				t.Fatalf("popped (%v, %d), want (%v, %d)", ev.at, ev.seq, now, want)
			}
			want++
		}
	}
	cycle(40)
	if after := snap(); after != before || q.size != pending {
		t.Fatalf("pushes due now moved the other buckets: %+v, then %+v; %d queued, want %d", before, after, q.size, pending)
	}
	if n := testing.AllocsPerRun(100, func() { cycle(40) }); n != 0 {
		t.Fatalf("a warm bucket 0 allocates %v times per 40 wakeups", n)
	}
}

// relay passes a token around a ring of callback processes: each hop
// unparks the next holder at the same virtual time. Every relay first
// yields with a zero advance; the first holder yields twice, so the others
// have parked before it starts.
type relay struct {
	ring  []*Proc
	i     int
	hops  *int
	phase int
}

func (r *relay) Step(p *Proc) bool {
	switch r.phase {
	case 0:
		r.phase = 1
		p.WakeIn(0)
		return false
	case 1:
		r.phase = 2
		if r.i == 0 {
			p.WakeIn(0)
		} else {
			p.ParkStep()
		}
		return false
	}
	next := r.ring[(r.i+1)%len(r.ring)]
	if *r.hops == 0 {
		if next.Parked() {
			p.env.Unpark(next) // wind down: every holder finishes
		}
		return true
	}
	*r.hops--
	p.env.Unpark(next)
	p.ParkStep()
	return false
}

func (r *relay) Name() string { return "relay" }

// runRelay passes the token hops times around n relays, while timers
// pending wakeups stay queued beside the token.
func runRelay(n, timers, hops int) (*Env, error) {
	env := NewEnv()
	for i := 0; i < timers; i++ {
		env.SpawnStep(&ticker{d: 1 + float64(i)/float64(timers), n: 1})
	}
	ring := make([]*Proc, n)
	for i := range ring {
		ring[i] = env.SpawnStep(&relay{ring: ring, i: i, hops: &hops})
	}
	return env, env.Run()
}

// TestSameTimeWakeupsStayInBucketZero: spawns, unparks and zero advances
// are all due now, so a run made of nothing else keeps every wakeup in
// bucket 0 and never redistributes.
func TestSameTimeWakeupsStayInBucketZero(t *testing.T) {
	env := NewEnv()
	hops := 10000
	ring := make([]*Proc, 64)
	for i := range ring {
		ring[i] = env.SpawnStep(&relay{ring: ring, i: i, hops: &hops})
	}
	pops, higher := 0, 0
	env.onPop = func(float64, int64, int) {
		pops++
		if env.queue.full != 0 || env.queue.n != env.queue.size {
			higher++
		}
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if higher != 0 || pops < 10000 || env.Now() != 0 {
		t.Fatalf("%d of %d pops saw a wakeup outside bucket 0, now %v; want none and 0", higher, pops, env.Now())
	}
}

// TestSecondEnvReusesQueueStorage: a drained Env hands its node array back
// at the end of Run, and the next Env to push takes it.
func TestSecondEnvReusesQueueStorage(t *testing.T) {
	storage := func() *node {
		env := NewEnv()
		var b *node
		env.onPop = func(float64, int64, int) { b = unsafe.SliceData(env.queue.nodes) }
		for i := 0; i < 16; i++ {
			env.SpawnStep(&ticker{d: 1 + float64(i)/16, n: 4})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if env.queue.nodes != nil {
			t.Fatal("a drained Env kept its nodes")
		}
		return b
	}
	first, second := storage(), storage()
	if first == nil || first != second {
		t.Fatalf("the second Env queued into %p, the first into %p", second, first)
	}
}

// TestWarmEnvAllocatesNothing reruns a relay and a set of tickers on one
// Env with recycled processes: once the node array has grown, spawns, unparks,
// zero and timed advances and their pops allocate nothing.
func TestWarmEnvAllocatesNothing(t *testing.T) {
	env := NewEnv()
	var hops int
	ring := make([]*Proc, 16)
	relays := make([]relay, len(ring))
	for i := range ring {
		ring[i] = &Proc{}
	}
	var tickProcs [16]Proc
	var ticks [16]ticker
	run := func() {
		hops = 200
		for i := range relays {
			relays[i] = relay{ring: ring, i: i, hops: &hops}
			env.StartStep(ring[i], &relays[i])
		}
		for i := range ticks {
			ticks[i] = ticker{d: 1 + float64(i)/16, n: 4}
			env.StartStep(&tickProcs[i], &ticks[i])
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("a warm run allocates %v times", n)
	}
}

// BenchmarkSameTimeWakeups is one relay hop — a pop, a Step, an unpark
// and a park — next to 256 pending timed wakeups.
func BenchmarkSameTimeWakeups(b *testing.B) {
	if _, err := runRelay(256, 256, b.N); err != nil {
		b.Fatal(err)
	}
}

// ticker wakes every d seconds, n times.
type ticker struct {
	d float64
	n int
}

func (k *ticker) Step(p *Proc) bool {
	if k.n == 0 {
		return true
	}
	k.n--
	p.WakeIn(k.d)
	return false
}

func (k *ticker) Name() string { return "ticker" }

// BenchmarkTimedWakeups is one wakeup of 256 processes advancing by
// distinct periods: a push into and a pop from a queue of 256 events.
func BenchmarkTimedWakeups(b *testing.B) {
	env := NewEnv()
	for i := 0; i < 256; i++ {
		env.SpawnStep(&ticker{d: 1 + float64(i)/256, n: b.N / 256})
	}
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}
