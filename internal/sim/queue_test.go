package sim

import (
	"math/rand"
	"testing"
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

// TestNowLaneGrowsWhileWrapped grows the ring while its head is past
// the start, then drains it in FIFO order.
func TestNowLaneGrowsWhileWrapped(t *testing.T) {
	var q eventQueue
	var p Proc // the queue copies the key, so one process serves every push
	want := int64(1)
	push := func(n int) {
		for ; n > 0; n-- {
			p.seq++
			q.push(&p, 0)
		}
	}
	pop := func(n int) {
		for ; n > 0; n-- {
			if ev := q.pop(); ev.seq != want {
				t.Fatalf("popped seq %d, want %d", ev.seq, want)
			}
			want++
		}
	}
	push(12)
	pop(10)
	push(14) // wraps: 16 slots, all full, head at 10
	push(40) // grows to 32 while wrapped, then to 64
	pop(56)
	if q.len() != 0 || len(q.ring) != 64 || cap(q.heap) != 0 {
		t.Fatalf("%d left, ring of %d, heap of %d; want 0, 64 and 0", q.len(), len(q.ring), cap(q.heap))
	}
	if n := testing.AllocsPerRun(100, func() { push(64); pop(64) }); n != 0 {
		t.Fatalf("a warm now lane allocates %v times per 64 wakeups", n)
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
// pending wakeups hold the heap at that size.
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

// TestSameTimeWakeupsSkipTheHeap: spawns, unparks and zero advances are
// all due now, so a run made of nothing else never touches the heap.
func TestSameTimeWakeupsSkipTheHeap(t *testing.T) {
	env, err := runRelay(64, 0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if cap(env.queue.heap) != 0 || len(env.queue.ring) != 64 || env.Now() != 0 {
		t.Fatalf("heap capacity %d, now lane %d slots, now %v; want 0, 64, 0",
			cap(env.queue.heap), len(env.queue.ring), env.Now())
	}
}

// TestWarmEnvAllocatesNothing reruns a relay and a set of tickers on one
// Env with recycled processes: once both lanes have grown, spawns, unparks,
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
// distinct periods: a push onto and a pop from a 256-event heap.
func BenchmarkTimedWakeups(b *testing.B) {
	env := NewEnv()
	for i := 0; i < 256; i++ {
		env.SpawnStep(&ticker{d: 1 + float64(i)/256, n: b.N / 256})
	}
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}
