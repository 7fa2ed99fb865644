package mpi

import (
	"fmt"

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
}

// Send transmits bytes to dst with the given tag, blocking per the
// underlying protocol: eager sends return once the payload left the NIC;
// rendezvous sends block until the receiver posts.
func (r *Rank) Send(dst, tag, bytes int) {
	if dst == r.ID {
		panic("mpi: send to self")
	}
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	r.checkCrash()
	t0 := r.Now()

	// Per-message host overhead on the sender.
	r.P.Advance(r.W.M.Cfg.Net.SendOverhead)

	t := r.newTransfer(dst, tag, bytes)
	for !t.Step(r.P) {
		r.P.Yield()
	}
	r.acct.BytesSent += int64(bytes)
	r.W.observeMsg(bytes)
	r.chargeMsg(r.Now()-t0, false)
	kind := trace.KindSend
	if r.SyncClass {
		kind = trace.KindSync
	}
	r.traceEvent(kind, "send", t0)
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
// pushes the payload through both NICs: blocking Send steps it on the
// rank's own process, Isend registers it as a callback process so the rank
// runs on. Its delivery leg (delivery.Step: latency, stall, receive-side
// packet processing, arrival) is always a callback process of its own,
// started when the payload has left the sender.
type transfer struct {
	msg message
	req Request // the Isend handle; unused by blocking Send
	r   *Rank   // the sending rank
	dst *Rank

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

func (r *Rank) newTransfer(dst, tag, bytes int) *transfer {
	return &transfer{
		msg: message{src: r.ID, dst: dst, tag: tag, bytes: bytes},
		r:   r,
		dst: r.W.ranks[dst],
	}
}

// Step advances the sender leg on process p. Only the rank's own process
// may unwind — there a crash or an exhausted watchdog panics as in any
// other blocking call. The Isend helper is stepped on some other process's
// stack, so it abandons the transfer quietly and leaves the report to the
// sender's Wait and to the receiver's own watchdog.
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
			t.dst.inbox = append(t.dst.inbox, msg)
			t.dst.wakeIfWaiting()

		case xferAwaitClear:
			if t.parked {
				t.parked = false
				msg.senderPark = false
				if !r.W.parkOutcome(p, &t.wds) {
					if own {
						panic(t.wds.timeout(r, "send-rendezvous", msg.dst))
					}
					t.req.abandoned = true
					return t.finish(p)
				}
			}
			if !msg.cleared {
				if own {
					r.checkCrash()
				}
				msg.senderPark = true
				t.parked = true
				r.W.armPark(p, &t.wds)
				return false
			}
			if own {
				r.checkCrash()
			}
			t.state = xferPackets

		case xferPackets:
			// Per-packet send processing on the sender CPU.
			t.pkts = net.Packets(msg.bytes)
			t.state = xferWire
			p.WakeIn(float64(t.pkts) * net.PerPacketSend)
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
			m.Env.SpawnStep((*delivery)(t))
			return t.finish(p)

		default:
			panic("mpi: sender leg stepped after the payload left")
		}
	}
}

// finish ends the sender leg; the Isend helper completes its request and
// resumes a rank blocked in Wait.
func (t *transfer) finish(p *sim.Proc) bool {
	if r := t.r; p != r.P {
		t.req.done = true
		if t.req.waiter {
			t.req.waiter = false
			if r.P.Parked() {
				r.W.M.Env.Unpark(r.P)
			}
		}
	}
	return true
}

// Name is the helper's label in a deadlock report.
func (t *transfer) Name() string { return fmt.Sprintf("isend %d->%d", t.msg.src, t.msg.dst) }

// delivery is the receive leg of a transfer, stepped as its own process.
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

// Recv blocks until a message from src with tag is delivered and returns
// its size. Waiting before the partner has initiated the send is booked as
// synchronization; everything after is communication.
func (r *Rank) Recv(src, tag int) int {
	if src == r.ID {
		panic("mpi: recv from self")
	}
	r.checkCrash()
	net := r.W.M.Cfg.Net
	t0 := r.Now()

	// Phase 1 (sync): wait until the envelope exists.
	var msg *message
	var wds wdState
	for {
		r.checkCrash()
		if msg = r.match(src, tag); msg != nil {
			break
		}
		r.waiting = true
		ok := r.guardedPark(&wds)
		r.waiting = false
		if !ok {
			panic(wds.timeout(r, "recv-match", src))
		}
	}
	tMatch := r.Now()
	msg.recvPosted = true

	// Phase 2 (comm): the transfer.
	if msg.rendezvous {
		// Clear-to-send control round trip, then the sender pushes.
		r.P.Advance(2 * net.Latency)
		msg.cleared = true
		if msg.senderPark {
			msg.senderPark = false
			if msg.sender.Parked() {
				r.W.M.Env.Unpark(msg.sender)
			}
		}
	}
	wds = wdState{}
	for !msg.arrived {
		r.checkCrash()
		r.waiting = true
		ok := r.guardedPark(&wds)
		r.waiting = false
		if !ok {
			panic(wds.timeout(r, "recv-data", src))
		}
	}
	r.checkCrash()
	r.P.Advance(net.RecvOverhead)
	r.remove(msg)

	r.acct.BytesRecv += int64(msg.bytes)
	r.chargeMsg(tMatch-t0, true)       // waiting for the partner
	r.chargeMsg(r.Now()-tMatch, false) // data transfer
	if tMatch > t0 {
		r.traceEvent(trace.KindSync, "wait", t0)
	}
	kind := trace.KindRecv
	if r.SyncClass {
		kind = trace.KindSync
	}
	r.traceEvent(kind, "recv", tMatch)
	return msg.bytes
}

// Request is the handle of a non-blocking send.
type Request struct {
	rank      *Rank
	done      bool
	abandoned bool // helper gave up (watchdog) without transferring
	dst       int
	bytes     int
	waiter    bool
}

// Isend starts a non-blocking send. The per-message host overhead is
// charged to the caller immediately (it is real CPU time); the transfer
// proceeds in a helper process. Wait blocks until the payload has left.
func (r *Rank) Isend(dst, tag, bytes int) *Request {
	if dst == r.ID {
		panic("mpi: isend to self")
	}
	r.checkCrash()
	t0 := r.Now()
	r.P.Advance(r.W.M.Cfg.Net.SendOverhead)
	r.chargeMsg(r.Now()-t0, false)

	t := r.newTransfer(dst, tag, bytes)
	t.req = Request{rank: r, dst: dst, bytes: bytes}
	r.W.M.Env.SpawnStep(t)
	r.acct.BytesSent += int64(bytes)
	r.W.observeMsg(bytes)
	return &t.req
}

// Wait blocks until the payload of the send has left and returns its size.
func (r *Rank) Wait(req *Request) int {
	if req.rank != r {
		panic("mpi: waiting on another rank's request")
	}
	r.checkCrash()
	t0 := r.Now()
	var wds wdState
	for !req.done {
		r.checkCrash()
		req.waiter = true
		ok := r.guardedPark(&wds)
		req.waiter = false
		if !ok {
			panic(wds.timeout(r, "wait-send", req.dst))
		}
	}
	r.checkCrash()
	if req.abandoned {
		panic(&TimeoutError{Rank: r.ID, Partner: req.dst, Op: "send-rendezvous", At: r.Now(), Since: t0})
	}
	r.chargeMsg(r.Now()-t0, false)
	return req.bytes
}

// Sendrecv exchanges messages with two (possibly different) partners
// without deadlocking.
func (r *Rank) Sendrecv(dst, sendTag, sendBytes, src, recvTag int) int {
	sreq := r.Isend(dst, sendTag, sendBytes)
	n := r.Recv(src, recvTag)
	r.Wait(sreq)
	return n
}
