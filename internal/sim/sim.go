// Package sim is a process-oriented discrete-event simulation engine in the
// style of SimPy: simulated processes run strictly one at a time under a
// virtual clock, giving up control when they advance time, park on an
// event, or finish. Determinism is guaranteed by a total order on wakeups
// (time, then sequence number).
//
// There are two kinds of process. A goroutine process (Spawn) runs ordinary
// blocking Go code — the cluster performance model runs every simulated MPI
// rank as one, executing the actual MD computation between yields, so
// simulated timing and real physics stay coupled. A callback process
// (SpawnStep) is a small state machine the scheduler steps inline on
// whichever goroutine is dispatching; message transfers, timers and fault
// injectors are callback processes, so they cost no goroutine, channel or
// context switch, and StartStep runs one on a Proc its caller owns and
// reuses, so it costs no allocation either. Both kinds take their IDs and
// sequence numbers at the same points, so a body behaves identically in
// either form.
//
// A goroutine process can also hand a whole blocking call to a Stepper
// (Proc.Await): every wakeup inside the call is stepped inline like a
// callback process's, and the goroutine resumes only when the call is done.
//
// There is no scheduler goroutine: the process giving up control pops the
// next event itself and wakes its owner directly (one goroutine switch per
// wakeup, none when a process pops its own event). Run only starts the
// chain and waits for the end.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
)

// Stepper is the body of a callback process.
type Stepper interface {
	// Step runs the process from where it left off. It returns true when
	// the process has finished; otherwise it must have scheduled its next
	// wakeup — WakeIn, ParkStep, ParkTimeoutStep, or a Resource.AcquireStep
	// that reported false — immediately before returning false. Step runs
	// on an arbitrary process's goroutine: it must not block, call the
	// goroutine-style methods (Yield, Await) or panic.
	Step(p *Proc) (done bool)
	// Name labels the process in the deadlock report. It is called only
	// when a report is rendered, never on the event path.
	Name() string
}

// Proc is one simulated process. Its methods must only be called from
// inside the process's own function or Step, except where noted.
type Proc struct {
	env    *Env
	id     int
	slot   int // index in env.procs; -1 once finished
	state  procState
	wakeAt float64
	seq    int64 // tie-break for deterministic ordering

	name string        // goroutine process
	wake chan struct{} // goroutine process: resumed by a receive here; nil for a callback process
	body Stepper       // callback process, or the call a goroutine process awaits; else nil

	finished bool
	killed   bool  // goroutine released after a deadlock; it must exit
	timedOut bool  // set by a firing timer before the timeout unpark
	parkGen  int64 // distinguishes park episodes for ParkTimeoutStep timers
}

type procState int

const (
	stateRunning procState = iota
	stateTimed             // waiting until wakeAt
	stateParked            // waiting for Unpark
	stateDone
)

// Env is the simulation environment: virtual clock plus event queue.
type Env struct {
	now     float64
	procs   []*Proc // live (unfinished) processes; finished ones are reaped
	queue   eventQueue
	seq     int64
	spawned int // total processes ever spawned (stable IDs)
	alive   int // processes spawned and not yet finished
	running bool

	// done carries the end of the event chain to Run (from the goroutine
	// that found nothing left to dispatch) and, after a deadlock, each
	// released goroutine's exit acknowledgement.
	done       chan struct{}
	deadlocked bool

	onPop func(now float64, seq int64, id int) // test hook: the pop trace
}

// NewEnv returns an empty environment at time 0.
func NewEnv() *Env {
	return &Env{done: make(chan struct{})}
}

// Now returns the current virtual time in seconds.
func (e *Env) Now() float64 { return e.now }

// Spawn registers a new goroutine process. The function body starts running
// at the current virtual time once Run is in control. Spawn may be called
// before Run or from inside a running process.
func (e *Env) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{name: name, wake: make(chan struct{})}
	e.register(p, 0)
	go func() {
		defer func() {
			if p.killed {
				e.done <- struct{}{} // acknowledge the release to Run
			}
		}()
		<-p.wake // wait for first schedule
		fn(p)
		e.finish(p)
		e.switchTo(e.next())
	}()
	return p
}

// SpawnStep registers a new callback process. Its first Step runs at the
// current virtual time, at the point a goroutine process spawned here would
// start. SpawnStep may be called before Run, from a running process or from
// another Step.
func (e *Env) SpawnStep(body Stepper) *Proc {
	p := &Proc{}
	e.StartStep(p, body)
	return p
}

// StartStep is SpawnStep on a caller-owned process, which must be zero or
// finished: a caller that recycles its helper processes spawns them without
// allocating. The process keeps its park generation, so a ParkTimeoutStep
// timer left over from an earlier use never matches a later park.
func (e *Env) StartStep(p *Proc, body Stepper) { e.StartStepIn(p, body, 0) }

// StartStepIn is StartStep with the first Step d ≥ 0 seconds from now: a
// process whose first act is a known wait starts with one event, where
// StartStep and a first Step that only calls WakeIn(d) take two.
func (e *Env) StartStepIn(p *Proc, body Stepper, d float64) {
	if p.env != nil && !p.finished {
		panic(fmt.Sprintf("sim: StartStep on live process %q", p.Name()))
	}
	if d < 0 {
		panic(fmt.Sprintf("sim: negative advance %g", d))
	}
	*p = Proc{body: body, parkGen: p.parkGen}
	e.register(p, d)
}

// register gives p its ID and schedules its start d seconds from now.
func (e *Env) register(p *Proc, d float64) {
	p.env = e
	p.id = e.spawned
	p.slot = len(e.procs)
	e.spawned++
	e.alive++
	e.procs = append(e.procs, p)
	p.state = stateTimed
	p.wakeAt = e.now + d
	p.seq = e.nextSeq()
	e.queue.push(p, e.now)
}

// finish retires p and removes it from the live set so long runs with many
// short-lived helper processes (message deliveries, watchdog timers) do not
// grow the process table without bound. Runs in the finishing process's
// exclusive window, so no lock is needed.
func (e *Env) finish(p *Proc) {
	p.state = stateDone
	p.finished = true
	e.alive--
	last := len(e.procs) - 1
	if p.slot != last {
		moved := e.procs[last]
		e.procs[p.slot] = moved
		moved.slot = p.slot
	}
	e.procs[last] = nil
	e.procs = e.procs[:last]
	p.slot = -1
}

func (e *Env) nextSeq() int64 {
	e.seq++
	return e.seq
}

// Run executes the simulation until every process has finished. It returns
// an error describing the parked processes if the simulation deadlocks; the
// goroutines of those processes are released (they exit, running their
// deferred calls) before Run returns.
func (e *Env) Run() error {
	if e.running {
		panic("sim: Run reentered")
	}
	e.running = true
	defer func() { e.running = false }()
	e.deadlocked = false
	defer e.queue.release()
	if first := e.next(); first != nil {
		first.wake <- struct{}{}
		<-e.done
	}
	if !e.deadlocked {
		return nil
	}
	err := e.deadlockError()
	// Every goroutine process still alive is blocked on its wake channel
	// and would stay so forever, pinning everything its stack references.
	// Release them one at a time, so their deferred calls stay serialized.
	for _, p := range e.procs {
		if p.wake != nil {
			p.killed = true
			p.wake <- struct{}{}
			<-e.done
		}
	}
	e.procs, e.alive = nil, 0
	return err
}

// next dispatches events in (time, seq) order, stepping callback processes
// and awaited calls inline, until an event belongs to a goroutine process
// (or finishes the call it awaits), and returns that process with the
// clock advanced to its wakeup. It returns nil when the
// simulation is over: every process has finished or, with e.deadlocked
// set, nothing is scheduled. It runs on the goroutine that is giving up
// control.
func (e *Env) next() *Proc {
	for {
		if e.alive == 0 {
			return nil
		}
		if e.queue.len() == 0 {
			e.deadlocked = true
			return nil
		}
		ev := e.queue.pop()
		e.now = ev.at
		p := ev.p
		p.state = stateRunning
		if e.onPop != nil {
			e.onPop(e.now, ev.seq, p.id)
		}
		if p.body == nil {
			return p
		}
		if p.body.Step(p) {
			if p.wake != nil {
				p.body = nil // the awaited call is done: resume its goroutine
				return p
			}
			e.finish(p)
		} else if p.state == stateRunning {
			panic(fmt.Sprintf("sim: callback process %q returned without scheduling a wakeup", p.Name()))
		}
	}
}

// switchTo resumes the goroutine of p, or reports the end of the event
// chain to Run when p is nil.
func (e *Env) switchTo(p *Proc) {
	if p != nil {
		p.wake <- struct{}{}
	} else {
		e.done <- struct{}{}
	}
}

// Yield blocks a goroutine process until the wakeup it has just scheduled
// with WakeIn, ParkStep, ParkTimeoutStep or a Resource.AcquireStep that
// reported false. The yielding goroutine dispatches the following events
// itself; when the next one is its own it simply continues.
func (p *Proc) Yield() {
	if p.killed {
		runtime.Goexit() // a deferred call of a released process tried to block
	}
	e := p.env
	next := e.next()
	if next == p {
		return
	}
	e.switchTo(next)
	<-p.wake
	if p.killed {
		runtime.Goexit()
	}
}

// Await runs body, one blocking call written as a Stepper, to completion on
// a goroutine process. The first Step runs here; every later wakeup is
// stepped inline by whichever goroutine is dispatching, as for a callback
// process, and only the Step that reports done resumes the goroutine. The
// pop sequence is the one the same call gets written with WakeIn, ParkStep
// and Yield; the goroutine switches drop to at most one per call. The
// goroutine resumes at the pop of the Step that finished the call, so a
// next call takes its first step at that pop: a sequence of calls and one
// call stepping through the same sequence pop the same events.
func (p *Proc) Await(body Stepper) {
	if body.Step(p) {
		return
	}
	if p.state == stateRunning {
		panic(fmt.Sprintf("sim: callback process %q returned without scheduling a wakeup", p.Name()))
	}
	p.body = body
	p.Yield()
}

func (e *Env) deadlockError() error {
	var parked []string
	for _, p := range e.procs {
		if !p.finished && p.state == stateParked {
			parked = append(parked, p.Name())
		}
	}
	sort.Strings(parked)
	return fmt.Errorf("sim: deadlock at t=%.9f, parked processes: %v", e.now, parked)
}

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.env.now }

// Name returns the process name.
func (p *Proc) Name() string {
	if p.wake != nil {
		return p.name
	}
	return p.body.Name()
}

// Done reports whether the process has finished. Unlike the other Proc
// methods it is safe to call from any process.
func (p *Proc) Done() bool { return p.finished }

// Parked reports whether the process is currently blocked in a park. Safe
// to call from any process; protocols that signal wakeups through shared
// flags use it to avoid unparking a process that already woke by timeout.
func (p *Proc) Parked() bool { return p.state == stateParked }

// WakeIn schedules the process's next wakeup d seconds of virtual time from
// now. d must be non-negative.
func (p *Proc) WakeIn(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative advance %g", d))
	}
	p.state = stateTimed
	p.wakeAt = p.env.now + d
	p.seq = p.env.nextSeq()
	p.env.queue.push(p, p.env.now)
}

// ParkStep marks the process parked until another process calls Unpark on
// it.
func (p *Proc) ParkStep() {
	p.parkGen++
	p.timedOut = false
	p.state = stateParked
}

// ParkTimeoutStep is ParkStep bounded by d seconds of virtual time: once
// the process runs again, TimedOut tells which of the two woke it. d must
// be positive.
//
// The timeout is a helper callback process; if the park ends early the
// stale timer recognizes the finished episode (via a generation counter)
// and does nothing. Finished timers are reaped from the process table like
// any other process.
func (p *Proc) ParkTimeoutStep(d float64) {
	if d <= 0 {
		panic(fmt.Sprintf("sim: non-positive park timeout %g", d))
	}
	// The timer is spawned before the park, carrying the generation
	// ParkStep assigns below.
	p.env.SpawnStep(&timer{target: p, gen: p.parkGen + 1, d: d})
	p.ParkStep()
}

// TimedOut reports whether the process's latest park was ended by its
// ParkTimeoutStep timer rather than by Unpark.
func (p *Proc) TimedOut() bool { return p.timedOut }

// timer is the callback process behind ParkTimeoutStep.
type timer struct {
	target *Proc
	gen    int64
	d      float64
	armed  bool
}

func (t *timer) Step(p *Proc) bool {
	if !t.armed {
		t.armed = true
		p.WakeIn(t.d)
		return false
	}
	if t.target.state == stateParked && t.target.parkGen == t.gen {
		t.target.timedOut = true
		p.env.Unpark(t.target)
	}
	return true
}

func (t *timer) Name() string { return "timeout:" + t.target.Name() }

// Unpark makes a parked process runnable at the current virtual time.
// It must be called from the currently running process (or before Run).
// Unparking a process that is not parked panics — that is always a logic
// error in the calling protocol.
func (e *Env) Unpark(p *Proc) {
	if p.state != stateParked {
		panic(fmt.Sprintf("sim: Unpark of non-parked process %q", p.Name()))
	}
	p.state = stateTimed
	p.wakeAt = e.now
	p.seq = e.nextSeq()
	e.queue.push(p, e.now)
}

// event is one scheduled wakeup. Its time is stored inline so the queue
// keys it without chasing the process pointer.
type event struct {
	at  float64
	seq int64
	p   *Proc
}

// eventQueue is a monotone radix heap of wakeups (Ahuja, Mehlhorn, Orlin
// and Tarjan, JACM 1990), keyed on math.Float64bits(at): non-negative
// doubles order as their bit patterns, and no wakeup is ever due before
// the last popped time, whose key is last.
//
// Bucket 0 holds the events due at last; bucket b ≥ 1 those whose key's
// highest bit differing from last is bit b-1, so every key of bucket b is
// below every key of bucket b+1. pop takes bucket 0's front. When bucket 0 is
// empty, pop makes the smallest key of the lowest non-empty bucket the new
// last and spreads that bucket over the empty buckets below it; an event
// only ever moves down, so at most 64 times.
//
// Every bucket is in seq order: each push draws the newest seq and
// appends, and a redistribution keeps the order of the bucket it spreads.
// So bucket 0 pops ties by seq, the pop sequence is the (at, seq) order,
// and a wakeup due now — a spawn, an unpark, a zero advance, a resource
// handoff — is an append to bucket 0.
//
// A bucket is a list threaded through one node array, so the queue holds
// one node per queued event whichever buckets they sit in. A drained queue
// hands the array back at the end of Run, and the next queue to push
// takes it: one array serves every Env of a warm process.
type eventQueue struct {
	last uint64 // key of the last popped event
	n    int    // events in bucket 0
	size int    // events queued
	full uint64 // bit b-1 set iff bucket b ≥ 1 holds events

	// Node indices are stored plus one, so 0 ends a list.
	first, end [65]int32  // each bucket's first and last node
	low        [65]uint64 // each bucket's smallest key; bucket 0's is last
	free       int32      // the list of free nodes
	nodes      []node
}

type node struct {
	ev   event
	next int32 // the next node of its bucket or of the free list
}

// spareNodes holds the node arrays of the drained queues.
var spareNodes struct {
	sync.Mutex
	free [][]node
}

func (q *eventQueue) len() int { return q.size }

// push schedules p at its (wakeAt, seq); now is the current virtual time,
// and p's seq is the newest drawn.
func (q *eventQueue) push(p *Proc, now float64) {
	if p.wakeAt < now {
		panic(fmt.Sprintf("sim: wakeup at %g before the clock at %g", p.wakeAt, now))
	}
	i := q.free
	if i != 0 {
		q.free = q.nodes[i-1].next
	} else {
		if q.nodes == nil {
			q.nodes = takeNodes()
		}
		q.nodes = append(q.nodes, node{})
		i = int32(len(q.nodes))
	}
	q.nodes[i-1] = node{ev: event{at: p.wakeAt, seq: p.seq, p: p}}
	q.link(math.Float64bits(p.wakeAt), i)
	q.size++
}

// link appends node i, whose next is 0 and whose key is key, to its
// bucket.
func (q *eventQueue) link(key uint64, i int32) {
	b := bits.Len64(key ^ q.last)
	if q.end[b] == 0 {
		q.first[b] = i
		q.low[b] = key
	} else {
		q.nodes[q.end[b]-1].next = i
		q.low[b] = min(q.low[b], key)
	}
	q.end[b] = i
	if b == 0 {
		q.n++
	} else {
		q.full |= 1 << (b - 1)
	}
}

// pop removes and returns the earliest event; the queue must not be empty.
func (q *eventQueue) pop() event {
	if q.n == 0 {
		q.redistribute()
	}
	i := q.first[0]
	nd := &q.nodes[i-1]
	ev := nd.ev
	if q.first[0] = nd.next; nd.next == 0 {
		q.end[0] = 0
	}
	*nd = node{next: q.free} // drops the process reference
	q.free = i
	q.n--
	q.size--
	return ev
}

// redistribute refills the empty bucket 0 from the lowest non-empty
// bucket.
func (q *eventQueue) redistribute() {
	b := bits.TrailingZeros64(q.full) + 1
	q.last = q.low[b]
	q.full &^= 1 << (b - 1)
	i := q.first[b]
	q.first[b], q.end[b] = 0, 0
	for i != 0 {
		nd := &q.nodes[i-1]
		next := nd.next
		nd.next = 0
		q.link(math.Float64bits(nd.ev.at), i)
		i = next
	}
}

// release hands the node array of a drained queue back for reuse.
func (q *eventQueue) release() {
	if q.nodes == nil || q.size > 0 {
		return
	}
	spareNodes.Lock()
	spareNodes.free = append(spareNodes.free, q.nodes[:0])
	spareNodes.Unlock()
	q.nodes, q.free = nil, 0
}

// takeNodes returns the node array a drained queue released, if any.
func takeNodes() []node {
	spareNodes.Lock()
	defer spareNodes.Unlock()
	n := len(spareNodes.free)
	if n == 0 {
		return nil
	}
	nodes := spareNodes.free[n-1]
	spareNodes.free[n-1] = nil
	spareNodes.free = spareNodes.free[:n-1]
	return nodes
}
