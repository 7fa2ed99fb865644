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
//
// Compute segments — real host work whose virtual duration is only known
// after running it — can optionally execute on a bounded pool of host
// worker goroutines (SetWorkers), overlapping the physics of independent
// processes while the dispatch order stays exactly the serial one; see
// Proc.Compute.
package sim

import (
	"fmt"
	"math"
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
	// goroutine-style methods (Advance, Park, Compute, ...) or panic.
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
	parkGen  int64 // distinguishes park episodes for ParkTimeout timers

	compute *computeSeg // host-parallel compute bookkeeping, lazily allocated
}

// computeSeg is one process's in-flight Compute closure (host-parallel
// mode only).
type computeSeg struct {
	fn     func() float64
	at     float64       // virtual submission time
	min    float64       // declared lower bound on the segment cost
	cost   float64       // closure result, read after done
	panicV interface{}   // recovered closure panic, re-raised in Compute
	done   chan struct{} // signalled once the closure has returned
}

type procState int

const (
	stateRunning   procState = iota
	stateTimed               // waiting until wakeAt
	stateParked              // waiting for Unpark
	stateComputing           // compute closure in flight on the worker pool
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

	// Host-parallel compute support.
	workers   int        // pool size; ≤1 runs compute closures inline
	jobs      chan *Proc // submitted segments; nil until the first one
	pool      sync.WaitGroup
	computing []*Proc // processes with an unresolved compute closure
}

// NewEnv returns an empty environment at time 0.
func NewEnv() *Env {
	return &Env{done: make(chan struct{})}
}

// SetWorkers sets the host worker pool size for Proc.Compute closures.
// n ≤ 1 keeps the serial behaviour (closures run inline on the process's
// goroutine); n > 1 lets up to n closures of different processes execute
// concurrently. Must be called before Run.
func (e *Env) SetWorkers(n int) {
	if e.running {
		panic("sim: SetWorkers while running")
	}
	if n < 0 {
		n = 0
	}
	e.workers = n
}

// Now returns the current virtual time in seconds.
func (e *Env) Now() float64 { return e.now }

// Spawn registers a new goroutine process. The function body starts running
// at the current virtual time once Run is in control. Spawn may be called
// before Run or from inside a running process.
func (e *Env) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{name: name, wake: make(chan struct{})}
	e.register(p)
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
func (e *Env) StartStep(p *Proc, body Stepper) {
	if p.env != nil && !p.finished {
		panic(fmt.Sprintf("sim: StartStep on live process %q", p.Name()))
	}
	*p = Proc{body: body, parkGen: p.parkGen}
	e.register(p)
}

// register gives p its ID and schedules its start at the current time.
func (e *Env) register(p *Proc) {
	p.env = e
	p.id = e.spawned
	p.slot = len(e.procs)
	e.spawned++
	e.alive++
	e.procs = append(e.procs, p)
	p.state = stateTimed
	p.wakeAt = e.now
	p.seq = e.nextSeq()
	e.queue.push(p)
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
	if first := e.next(); first != nil {
		first.wake <- struct{}{}
		<-e.done
	}
	if e.jobs != nil {
		close(e.jobs)
		e.pool.Wait()
		e.jobs = nil
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
		// Host-parallel mode: before popping the head event, every pending
		// compute whose earliest possible wakeup (submission time + declared
		// lower bound, with the seq assigned at submission) could order
		// before the head must be resolved. This keeps the pop sequence —
		// and therefore every tie-break and RNG draw — identical to the
		// serial schedule.
		for len(e.computing) > 0 {
			c := e.minPendingCompute()
			if len(e.queue) > 0 {
				head := &e.queue[0]
				bound := c.compute.at + c.compute.min
				if head.at < bound || (head.at == bound && head.seq < c.seq) {
					break // head provably precedes every in-flight segment
				}
			}
			e.resolveCompute(c)
		}
		if len(e.queue) == 0 {
			e.deadlocked = true
			return nil
		}
		ev := e.queue.pop()
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: time went backwards: %g -> %g", e.now, ev.at))
		}
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
// reported false: Advance is WakeIn followed by Yield. The yielding
// goroutine dispatches the following events itself; when the next one is
// its own it simply continues.
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
// pop sequence is the one the same call gets written with Advance, Park
// and Yield; the goroutine switches drop to at most one per call.
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

// minPendingCompute returns the in-flight compute with the smallest
// (earliest possible wakeup, seq) key.
func (e *Env) minPendingCompute() *Proc {
	best := e.computing[0]
	bestAt := best.compute.at + best.compute.min
	for _, c := range e.computing[1:] {
		at := c.compute.at + c.compute.min
		if at < bestAt || (at == bestAt && c.seq < best.seq) {
			best, bestAt = c, at
		}
	}
	return best
}

// resolveCompute waits for the closure of c to finish and schedules its
// wakeup at submission time + actual cost, under the seq assigned at
// submission.
func (e *Env) resolveCompute(c *Proc) {
	seg := c.compute
	<-seg.done
	if seg.panicV == nil {
		d := seg.cost
		if math.IsNaN(d) || d < 0 {
			seg.panicV = fmt.Sprintf("sim: invalid compute cost %g", d)
		} else if d < seg.min {
			seg.panicV = fmt.Sprintf("sim: compute cost %g below declared lower bound %g", d, seg.min)
		}
	}
	if seg.panicV != nil {
		// Wake as early as allowed so the panic unwinds the process.
		c.wakeAt = seg.at + seg.min
	} else {
		c.wakeAt = seg.at + seg.cost
	}
	c.state = stateTimed
	e.queue.push(c)
	for i, p := range e.computing {
		if p == c {
			e.computing = append(e.computing[:i], e.computing[i+1:]...)
			break
		}
	}
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
	p.env.queue.push(p)
}

// Advance blocks the process for d seconds of virtual time. d must be
// non-negative.
func (p *Proc) Advance(d float64) {
	p.WakeIn(d)
	p.Yield()
}

// Compute executes fn — pure host-side work that must not touch the
// simulation — and advances virtual time by its returned cost, exactly like
// running fn inline followed by Advance(fn()). minCost must be a guaranteed
// lower bound on the value fn will return (0 is always safe); the cost
// being below the declared bound panics, in both modes.
//
// With a worker pool configured (Env.SetWorkers > 1), fn runs on a pool
// goroutine while other processes' events proceed, but only events that
// provably order before (submission time + minCost, seq) — the earliest
// key this process's wakeup can take — are allowed to fire first, so the
// event order is bitwise-identical to the serial schedule. Tighter bounds
// buy more overlap; a zero bound serializes against same-time events.
func (p *Proc) Compute(minCost float64, fn func() float64) float64 {
	if math.IsNaN(minCost) || minCost < 0 {
		panic(fmt.Sprintf("sim: invalid compute lower bound %g", minCost))
	}
	e := p.env
	if e.workers <= 1 {
		d := fn()
		if math.IsNaN(d) || d < 0 {
			panic(fmt.Sprintf("sim: invalid compute cost %g", d))
		}
		if d < minCost {
			panic(fmt.Sprintf("sim: compute cost %g below declared lower bound %g", d, minCost))
		}
		p.Advance(d)
		return d
	}
	if p.compute == nil {
		p.compute = &computeSeg{done: make(chan struct{}, 1)}
	}
	if e.jobs == nil {
		e.startPool()
	}
	seg := p.compute
	seg.fn, seg.at, seg.min, seg.panicV = fn, e.now, minCost, nil
	p.state = stateComputing
	p.seq = e.nextSeq() // same numbering point as the serial Advance
	e.computing = append(e.computing, p)
	e.jobs <- p
	p.Yield()
	if v := seg.panicV; v != nil {
		seg.panicV = nil
		panic(v)
	}
	return seg.cost
}

// startPool starts the host workers; Run stops them. A process has at most
// one segment in flight, so a queue as long as the process table never
// blocks a submitter; processes spawned later can at worst wait for a
// worker, which costs overlap but not correctness.
func (e *Env) startPool() {
	e.jobs = make(chan *Proc, max(e.alive, e.workers))
	for i := 0; i < e.workers; i++ {
		e.pool.Add(1)
		go func() {
			defer e.pool.Done()
			for p := range e.jobs {
				p.compute.run()
			}
		}()
	}
}

func (seg *computeSeg) run() {
	defer func() {
		if v := recover(); v != nil {
			seg.panicV = v
		}
		seg.done <- struct{}{}
	}()
	seg.cost = seg.fn()
}

// ParkStep marks the process parked until another process calls Unpark on
// it.
func (p *Proc) ParkStep() {
	p.parkGen++
	p.timedOut = false
	p.state = stateParked
}

// Park blocks the process until another process calls Unpark on it. The
// programs run on the step forms (ParkStep + Yield); the blocking forms
// Park, ParkTimeout and Resource.Acquire stay as the reference side of
// TestScheduleEquivalence.
func (p *Proc) Park() {
	p.ParkStep()
	p.Yield()
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

// ParkTimeout parks the process until another process calls Unpark on it
// or until d seconds of virtual time elapse, whichever comes first. It
// reports whether the process was woken by Unpark (true) or by the
// timeout (false). d must be positive. Reference form, see Park.
func (p *Proc) ParkTimeout(d float64) bool {
	p.ParkTimeoutStep(d)
	p.Yield()
	return !p.timedOut
}

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
	e.queue.push(p)
}

// event is one scheduled wakeup. The key is stored inline so ordering
// comparisons do not chase the process pointer.
type event struct {
	at  float64
	seq int64
	p   *Proc
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap on (at, seq). Sequence numbers are
// unique, so the order is total and the pop sequence does not depend on
// the heap's internal layout.
type eventQueue []event

// push schedules p at its (wakeAt, seq).
func (q *eventQueue) push(p *Proc) {
	h := append(*q, event{at: p.wakeAt, seq: p.seq, p: p})
	i := len(h) - 1
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	ev := h[n]
	h[n] = event{} // drop the process reference
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && h[r].before(&h[child]) {
				child = r
			}
			if !h[child].before(&ev) {
				break
			}
			h[i] = h[child]
			i = child
		}
		h[i] = ev
	}
	*q = h
	return top
}
