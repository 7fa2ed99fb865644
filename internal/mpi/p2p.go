package mpi

import (
	"fmt"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// dualInterruptPenalty inflates interrupt-driven receive processing when
// every CPU of a node runs a compute rank (no idle CPU to absorb the
// stack's work): cycles are stolen from computation and the handler
// contends with two hot caches.
const dualInterruptPenalty = 3.0

// message is one in-flight or queued point-to-point message. The record is
// deposited into the receiver's inbox at send initiation so a receiver can
// distinguish "partner has not sent yet" (synchronization time) from
// "transfer in progress" (communication time).
type message struct {
	src, dst, tag int
	bytes         int

	rendezvous bool
	arrived    bool // payload available at the receiver
	recvPosted bool // a receiver has matched this message

	sender     *sim.Proc // rendezvous: the process awaiting clear-to-send
	senderPark bool
	cleared    bool // clear-to-send granted by the receiver

	xfer *transfer // the transfer carrying it, which the receiver releases
}

// call is a rank's blocking operation in step form, run by one stepper
// while the rank awaits it, so the rank's goroutine resumes once per call
// however often the call waits. A computation is one primitive; a
// collective is one segment per algorithm it runs, and a segment plans its
// rounds one at a time, each when the one before is done, so a p-round
// algorithm needs room for one round, not p. The call lives in the Rank, a
// round has at most six primitives and the queue of isends grows to the
// rank's peak and is reused, so a call allocates nothing of its own.
type call struct {
	r *Rank

	segs      [5]segment // a fenced CMPI collective composes five
	nseg, seg int
	round     int     // the segment's next round
	plan      [6]prim // the round running
	n, pc     int     // its length; the primitive running
	st        uint8   // that primitive's state
	sync      bool    // the segment's message time is synchronization

	t0, tMatch float64     // the primitive's start; recv: when its envelope matched
	wds        wdState     // the current wait's watchdog budget
	msg        *message    // recv: the matched message
	xfer       *transfer   // send: the rank's own transfer
	reqs       []*transfer // the isends not yet waited for, oldest first
	got        int         // recv: the size received

	fail error // a *CrashError or *TimeoutError for await to raise
}

// prim is one primitive of a call.
type prim struct {
	kind      primKind
	peer, tag int
	bytes     int
	d         float64 // compute: seconds before straggler scaling
}

type primKind uint8

const (
	primIsend primKind = iota
	primRecv
	primWait
	primSend
	primCompute
)

// Recv states; the other primitives use st 0 (start) and 1 (resumed).
const (
	recvStart uint8 = iota
	recvMatch
	recvMatchWoken
	recvCleared
	recvData
	recvDataWoken
	recvDone
)

// segment is one collective algorithm of a call with its arguments. rounds
// plans round i of it (the add methods) and reports whether there is one;
// a round may plan nothing.
type segment struct {
	rounds   func(r *Rank, s *segment, i int) bool
	bytes    int
	reduceOp float64
	sizes    [][]int       // the dense all-to-alls
	row      []sparseEntry // the sparse all-to-alls: the rank's entries
	blocks   []int         // the ring allgather
	flip     bool          // read row transposed
	sync     bool          // all its message time is synchronization
	t0       float64       // a CMPI Sync's start
}

// add appends a primitive to the round being planned.
func (r *Rank) add(kind primKind, peer, tag, bytes int) {
	c := &r.call
	c.plan[c.n] = prim{kind: kind, peer: peer, tag: tag, bytes: bytes}
	c.n++
}

// addSendrecv plans an exchange with two (possibly different) partners that
// cannot deadlock: isend, recv, wait.
func (r *Rank) addSendrecv(dst, sendTag, sendBytes, src, recvTag int) {
	r.add(primIsend, dst, sendTag, sendBytes)
	r.add(primRecv, src, recvTag, 0)
	r.add(primWait, 0, 0, 0)
}

// addCompute plans a reduce merge of d seconds, if d is positive.
func (r *Rank) addCompute(d float64) {
	if c := &r.call; d > 0 {
		c.plan[c.n] = prim{kind: primCompute, d: d}
		c.n++
	}
}

// await runs the call — the round already planned, then the segments — on
// the rank's process and raises what it recorded on the rank's own
// goroutine, at the pop where blocking code would have panicked.
func (r *Rank) await(segs ...segment) {
	c := &r.call
	c.nseg = copy(c.segs[:], segs)
	r.P.Await(c)
	clear(c.segs[:c.nseg]) // keep none of the caller's slices
	c.n, c.pc, c.st, c.nseg, c.seg, c.round, c.sync = 0, 0, 0, 0, 0, 0, false
	if err := c.fail; err != nil {
		c.fail = nil
		panic(err)
	}
}

// Step runs the call from where it left off.
func (c *call) Step(*sim.Proc) bool {
	for {
		for ; c.pc < c.n; c.pc, c.st = c.pc+1, 0 {
			pr := &c.plan[c.pc]
			var done bool
			switch pr.kind {
			case primIsend:
				done = c.isend(pr)
			case primRecv:
				done = c.recv(pr)
			case primWait:
				done = c.wait()
			case primSend:
				done = c.send(pr)
			case primCompute:
				done = c.compute(pr)
			}
			if !done {
				return false
			}
			if c.fail != nil {
				return true
			}
		}
		if !c.next() {
			return true
		}
	}
}

// next plans the following round of the call's segments, under the
// segment's classification, and reports whether there is one.
func (c *call) next() bool {
	c.n, c.pc = 0, 0
	for ; c.seg < c.nseg; c.seg, c.round = c.seg+1, 0 {
		s := &c.segs[c.seg]
		c.sync = s.sync
		if s.rounds(c.r, s, c.round) {
			c.round++
			return true
		}
	}
	return false
}

// Name is never rendered: an awaiting rank is reported by its own name.
func (c *call) Name() string { return c.r.P.Name() }

// crashed records an injected crash that has taken effect as the call's
// failure, which the rank raises as a *CrashError, and reports whether it
// did. Other ranks notice the loss through their watchdogs.
func (c *call) crashed() bool {
	if c.r.crashed {
		c.fail = &CrashError{Rank: c.r.ID, At: c.r.Now()}
	}
	return c.r.crashed
}

// failWith records err as the call's failure and ends the primitive.
func (c *call) failWith(err error) bool {
	c.fail = err
	return true
}

// park parks the rank for one round of a wait loop with flag raised, so
// progress knows to unpark it.
func (c *call) park(flag *bool) bool {
	*flag = true
	c.r.W.armPark(c.r.P, &c.wds)
	return false
}

// woken lowers flag once the rank runs again and reports whether the wait
// may go on.
func (c *call) woken(flag *bool) bool {
	*flag = false
	return c.r.W.parkOutcome(c.r.P, &c.wds)
}

// send transmits bytes to the partner, blocking per the underlying
// protocol: eager sends finish once the payload left the NIC; rendezvous
// sends wait until the receiver posts. The transfer's sender leg is
// stepped on the rank's own process.
func (c *call) send(pr *prim) bool {
	r := c.r
	switch c.st {
	case 0:
		if c.crashed() {
			return true
		}
		// Per-message host overhead on the sender.
		c.t0, c.st = r.Now(), 1
		r.P.WakeIn(r.W.M.Cfg.Net.SendOverhead)
		return false
	case 1:
		c.xfer, c.st = r.newTransfer(pr.peer, pr.tag, pr.bytes, 1), 2 // held by the receiver
	}
	if !c.xfer.Step(r.P) {
		return false
	}
	c.xfer = nil
	if c.fail != nil {
		return true
	}
	r.acct.BytesSent += int64(pr.bytes)
	r.W.observeMsg(pr.bytes)
	r.chargeMsg(r.Now()-c.t0, false)
	kind := trace.KindSend
	if c.sync {
		kind = trace.KindSync
	}
	r.traceEvent(kind, "send", c.t0)
	return true
}

// isend starts a non-blocking send. The per-message host overhead is
// charged to the caller (it is real CPU time); the transfer proceeds in its
// helper process and a later wait reads it. An eager envelope needs no
// handshake, so the rank deposits it on its own step and the helper starts
// at the end of the packet processing.
func (c *call) isend(pr *prim) bool {
	r := c.r
	net := &r.W.M.Cfg.Net
	if c.st == 0 {
		if c.crashed() {
			return true
		}
		c.t0, c.st = r.Now(), 1
		r.P.WakeIn(net.SendOverhead)
		return false
	}
	r.chargeMsg(r.Now()-c.t0, false)
	t := r.newTransfer(pr.peer, pr.tag, pr.bytes, 2) // held by the receiver and the wait
	if pr.bytes > net.EagerLimit {
		r.W.M.Env.StartStep(&t.sendP, t)
	} else {
		t.deposit()
		t.state = xferWire
		r.W.M.Env.StartStepIn(&t.sendP, t, t.packets(net))
	}
	r.acct.BytesSent += int64(pr.bytes)
	r.W.observeMsg(pr.bytes)
	c.reqs = append(c.reqs, t)
	return true
}

// wait finishes once the payload of the oldest isend not yet waited for
// has left, and releases the transfer.
func (c *call) wait() bool {
	r, t := c.r, c.reqs[0]
	if c.st == 0 {
		c.t0, c.wds, c.st = r.Now(), wdState{}, 1
	} else if !c.woken(&t.waiter) {
		return c.failWith(c.wds.timeout(r, "wait-send", t.msg.dst))
	}
	if c.crashed() {
		return true
	}
	if !t.done {
		return c.park(&t.waiter)
	}
	if t.abandoned {
		return c.failWith(&TimeoutError{Rank: r.ID, Partner: t.msg.dst, Op: "send-rendezvous", At: r.Now(), Since: c.t0})
	}
	r.chargeMsg(r.Now()-c.t0, false)
	c.reqs = c.reqs[:copy(c.reqs, c.reqs[1:])]
	t.release()
	return true
}

// recv finishes once a message from the partner with the tag is delivered.
// Waiting before the partner has initiated the send is booked as
// synchronization; everything after is communication.
func (c *call) recv(pr *prim) bool {
	r := c.r
	net := &r.W.M.Cfg.Net
	for {
		switch c.st {
		case recvStart:
			c.t0, c.wds, c.st = r.Now(), wdState{}, recvMatch

		case recvMatchWoken:
			if !c.woken(&r.waiting) {
				return c.failWith(c.wds.timeout(r, "recv-match", pr.peer))
			}
			c.st = recvMatch

		case recvMatch:
			// Phase 1 (sync): wait until the envelope exists.
			if c.crashed() {
				return true
			}
			if c.msg = r.match(pr.peer, pr.tag); c.msg == nil {
				c.st = recvMatchWoken
				return c.park(&r.waiting)
			}
			c.tMatch = r.Now()
			c.msg.recvPosted = true
			c.wds, c.st = wdState{}, recvData
			if c.msg.rendezvous {
				// Phase 2 (comm): the clear-to-send control round trip,
				// then the sender pushes.
				c.st = recvCleared
				r.P.WakeIn(2 * net.Latency)
				return false
			}

		case recvCleared:
			msg := c.msg
			msg.cleared = true
			if msg.senderPark {
				msg.senderPark = false
				if msg.sender.Parked() {
					r.W.M.Env.Unpark(msg.sender)
				}
			}
			c.st = recvData

		case recvDataWoken:
			if !c.woken(&r.waiting) {
				return c.failWith(c.wds.timeout(r, "recv-data", pr.peer))
			}
			c.st = recvData

		case recvData:
			if c.crashed() {
				return true
			}
			if !c.msg.arrived {
				c.st = recvDataWoken
				return c.park(&r.waiting)
			}
			c.st = recvDone
			r.P.WakeIn(net.RecvOverhead)
			return false

		case recvDone:
			msg := c.msg
			c.msg, c.got = nil, msg.bytes
			r.remove(msg)
			r.acct.BytesRecv += int64(msg.bytes)
			msg.xfer.release()
			r.chargeMsg(c.tMatch-c.t0, true)     // waiting for the partner
			r.chargeMsg(r.Now()-c.tMatch, false) // data transfer
			if c.tMatch > c.t0 {
				r.traceEvent(trace.KindSync, "wait", c.t0)
			}
			kind := trace.KindRecv
			if c.sync {
				kind = trace.KindSync
			}
			r.traceEvent(kind, "recv", c.tMatch)
			return true
		}
	}
}

// compute is d seconds of computation, scaled by a straggler fault in
// effect at its start: Rank.Compute, or a reduce merge.
func (c *call) compute(pr *prim) bool {
	r := c.r
	if c.crashed() {
		return true
	}
	if c.st == 0 {
		c.t0, c.st = r.Now(), 1
		r.P.WakeIn(r.chargeComp(pr.d))
		return false
	}
	r.traceEvent(trace.KindCompute, "compute", c.t0)
	return true
}

// wakeIfWaiting resumes a rank parked inside a matching loop. A rank whose
// watchdog already woke it (flag still set, process queued) just has the
// flag cleared: it will rescan its inbox when it resumes.
func (r *Rank) wakeIfWaiting() {
	if r.waiting {
		r.waiting = false
		if r.P.Parked() {
			r.W.M.Env.Unpark(r.P)
		}
	}
}

// transfer carries one message from deposit to arrival. Its sender leg
// (Step) deposits the envelope, waits out the rendezvous handshake and
// pushes the payload through both NICs: a blocking send steps it on the
// rank's own process, an isend starts it as the callback process sendP so
// the rank runs on. Its delivery leg (delivery.Step: latency, stall,
// receive-side packet processing, arrival) starts when the payload has left
// the sender: an isend's sendP steps on into it, while a blocking send's
// rank moves on and leaves it to the callback process dlvP.
//
// Both processes live in the transfer, and a finished transfer goes back
// to its world's free list for newTransfer to reuse, so a run allocates
// transfers only up to its peak in flight. A transfer is finished when
// its last holder releases it: the receiver once it has consumed the
// message, and for an isend also the wait once it has seen the payload
// leave. Both legs have ended by then. A path that crashes, times out or
// abandons never releases, and leaves its transfer to the garbage
// collector.
type transfer struct {
	transit
	sendP, dlvP sim.Proc // the isend helper and a blocking send's delivery leg
}

// transit is the part of a transfer that newTransfer resets for each
// message; the two processes StartStep resets itself.
type transit struct {
	msg     message
	r       *Rank // the sending rank
	dst     *Rank
	holders int // claims not yet released; the last release frees the transfer

	// The isend's completion, which a wait reads.
	done      bool
	abandoned bool // the helper gave up (watchdog) without transferring
	waiter    bool // a wait is parked on it

	state    xferState
	parked   bool    // a guarded park of the rendezvous wait is outstanding
	wds      wdState // that wait's watchdog budget
	pkts     int
	sameNode bool
	wire     float64 // serialized transfer time, link degradation included
	delay    float64 // delivery: wire latency plus any flow-control stall
	cost     float64 // delivery: interrupt service time
}

type xferState uint8

const (
	xferDeposit xferState = iota
	xferAwaitClear
	xferPackets
	xferWire
	xferAcquireRx
	xferOccupy
	xferRelease
	xferLeft

	dlvFlight
	dlvProcess
	dlvService
	dlvServiced
	dlvArrive
)

// newTransfer takes a transfer from the world's free list, or allocates
// one, for a message with the given number of holders.
func (r *Rank) newTransfer(dst, tag, bytes, holders int) *transfer {
	w := r.W
	var t *transfer
	if n := len(w.free); n > 0 {
		t = w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
	} else {
		t = new(transfer)
	}
	t.transit = transit{
		msg:     message{src: r.ID, dst: dst, tag: tag, bytes: bytes, xfer: t},
		r:       r,
		dst:     w.ranks[dst],
		holders: holders,
	}
	return t
}

// release drops one holder's claim; the last one returns the transfer to
// the world's free list.
func (t *transfer) release() {
	if t.holders--; t.holders == 0 {
		w := t.r.W
		w.free = append(w.free, t)
	}
}

// Step advances the sender leg on process p. On the rank's own process a
// crash or an exhausted watchdog ends the leg as the rank's recorded
// failure. The isend helper is stepped on some other process's stack, so
// it abandons the transfer quietly and leaves the report to the sender's
// wait and to the receiver's own watchdog; once the payload has left, it
// steps on as the delivery leg.
func (t *transfer) Step(p *sim.Proc) bool {
	r, msg := t.r, &t.msg
	m := r.W.M
	net := &m.Cfg.Net
	own := p == r.P
	for {
		switch t.state {
		case xferDeposit:
			t.state = xferPackets
			if msg.bytes > net.EagerLimit {
				// Rendezvous: deposit the envelope, park until the receiver
				// posts and the clear-to-send returns, then push the payload.
				msg.rendezvous = true
				msg.sender = p
				t.state = xferAwaitClear
			}
			t.deposit()

		case xferAwaitClear:
			if t.parked {
				t.parked = false
				msg.senderPark = false
				if !r.W.parkOutcome(p, &t.wds) {
					if own {
						return r.call.failWith(t.wds.timeout(r, "send-rendezvous", msg.dst))
					}
					t.abandoned = true
					return t.finish(p)
				}
			}
			if own && r.call.crashed() {
				return true
			}
			if !msg.cleared {
				msg.senderPark = true
				t.parked = true
				r.W.armPark(p, &t.wds)
				return false
			}
			t.state = xferPackets

		case xferPackets:
			t.state = xferWire
			p.WakeIn(t.packets(net))
			return false

		case xferWire:
			// The payload occupies the sender's transmit engine and the
			// receiver's receive engine for the serialized transfer time
			// (cut-through pipelining: one bandwidth term, not two).
			// Same-node ranks do not traverse the NIC (shared memory /
			// loopback), but an interrupt-driven stack still burns receive
			// CPU in the delivery leg. Link-degradation faults scale the
			// wire terms; the degradation in effect when the transfer
			// starts governs the whole message.
			srcNode, dstNode := m.NodeOf(msg.src), m.NodeOf(msg.dst)
			t.sameNode = srcNode == dstNode
			transfer := float64(msg.bytes) / net.Bandwidth
			bwDiv, latMul := m.LinkScaleAt(p.Now(), srcNode.ID, dstNode.ID)
			switch {
			case !t.sameNode:
				m.ActiveFlows++
				t.wire = transfer * bwDiv
				t.delay = net.Latency * latMul
				t.state = xferAcquireRx
				if !srcNode.NicTx.AcquireStep(p) {
					return false
				}
			case net.InterruptDriven:
				// TCP loopback between two CPUs of one node runs the whole
				// protocol stack (§4.3): full transfer cost, full latency,
				// and the interrupt work of the delivery leg — there is no
				// shared-memory fast path.
				t.delay = net.Latency
				t.state = xferLeft
				p.WakeIn(transfer)
				return false
			default:
				// SCore / Myrinet shared-memory drivers handle same-node
				// traffic effectively (paper §4.3).
				t.delay = net.Latency * 0.25
				t.state = xferLeft
				p.WakeIn(transfer * 0.3)
				return false
			}

		case xferAcquireRx:
			t.state = xferOccupy
			if !m.NodeOf(msg.dst).NicRx.AcquireStep(p) {
				return false
			}

		case xferOccupy:
			t.state = xferRelease
			p.WakeIn(t.wire)
			return false

		case xferRelease:
			m.NodeOf(msg.src).NicTx.Release()
			m.NodeOf(msg.dst).NicRx.Release()
			t.delay += m.StallDelay()
			t.state = xferLeft

		case xferLeft:
			t.state = dlvFlight
			if own {
				m.Env.StartStep(&t.dlvP, (*delivery)(t))
				return true
			}
			t.finish(p)

		default:
			// The isend helper carries its message on as the delivery leg.
			return (*delivery)(t).Step(p)
		}
	}
}

// deposit puts the envelope in the receiver's inbox and wakes the receiver
// if it waits for one.
func (t *transfer) deposit() {
	t.dst.inbox = append(t.dst.inbox, &t.msg)
	t.dst.wakeIfWaiting()
}

// packets counts the message's packets and returns their send processing
// time on the sender CPU.
func (t *transfer) packets(net *netmodel.Params) float64 {
	t.pkts = net.Packets(t.msg.bytes)
	return float64(t.pkts) * net.PerPacketSend
}

// finish ends the sender leg; the isend helper completes the send and
// resumes a rank blocked in a wait.
func (t *transfer) finish(p *sim.Proc) bool {
	if r := t.r; p != r.P {
		t.done = true
		if t.waiter {
			t.waiter = false
			if r.P.Parked() {
				r.W.M.Env.Unpark(r.P)
			}
		}
	}
	return true
}

// Name is the helper's label in a deadlock report.
func (t *transfer) Name() string { return fmt.Sprintf("isend %d->%d", t.msg.src, t.msg.dst) }

// delivery is the receive leg of a transfer: the process dlvP of a
// blocking send, the rest of an isend's helper.
type delivery transfer

func (d *delivery) Step(p *sim.Proc) bool {
	msg := &d.msg
	m := d.r.W.M
	net := &m.Cfg.Net
	for {
		switch d.state {
		case dlvFlight:
			d.state = dlvProcess
			p.WakeIn(d.delay)
			return false

		case dlvProcess:
			// Receive-side packet processing: serialized on the interrupt
			// CPU for interrupt-driven stacks, handled by the NIC processor
			// otherwise.
			cost := float64(d.pkts) * net.PerPacketRecv
			if !net.InterruptDriven {
				d.state = dlvArrive
				p.WakeIn(cost)
				return false
			}
			// The paper's machines were dual-CPU boards: in uni-processor
			// runs the idle second CPU absorbed the interrupt load, while
			// with both CPUs computing the stack steals compute cycles and
			// contends with two processes (§4.3 and [18]). Model the loss as
			// a contention multiplier on the interrupt service time. A
			// straggler fault slows the interrupt CPU like any other core of
			// the node.
			if m.Cfg.CPUsPerNode > 1 {
				cost *= dualInterruptPenalty
			}
			dstNode := m.NodeOf(msg.dst)
			d.cost = cost * m.ComputeScaleAt(p.Now(), dstNode.ID)
			d.state = dlvService
			if !dstNode.Intr.AcquireStep(p) {
				return false
			}

		case dlvService:
			d.state = dlvServiced
			p.WakeIn(d.cost)
			return false

		case dlvServiced:
			m.NodeOf(msg.dst).Intr.Release()
			d.state = dlvArrive

		case dlvArrive:
			if !d.sameNode {
				m.ActiveFlows--
			}
			msg.arrived = true
			d.dst.wakeIfWaiting()
			return true

		default:
			panic("mpi: delivery leg stepped before the payload left")
		}
	}
}

// Name is the delivery's label in a deadlock report.
func (d *delivery) Name() string { return fmt.Sprintf("dlv %d->%d", d.msg.src, d.msg.dst) }

// match scans the inbox for the oldest message from src with tag.
func (r *Rank) match(src, tag int) *message {
	for _, m := range r.inbox {
		if m.src == src && m.tag == tag && !m.recvPosted {
			return m
		}
	}
	return nil
}

// remove deletes a consumed message from the inbox.
func (r *Rank) remove(msg *message) {
	for i, m := range r.inbox {
		if m == msg {
			r.inbox = append(r.inbox[:i], r.inbox[i+1:]...)
			return
		}
	}
	panic("mpi: removing message not in inbox")
}
