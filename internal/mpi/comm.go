// Package mpi implements a simulated MPI subset on top of the
// discrete-event cluster model: point-to-point messages (eager and
// rendezvous protocols, NIC occupancy, interrupt-CPU serialization, TCP
// stall injection) under the MPICH-1-era collective algorithms the
// paper's CHARMM runs used (binomial broadcast/reduce, reduce+bcast
// allreduce, linear gather, pairwise all-to-all, dissemination barrier),
// their post-2004 successors, and the CHARMM-MPI middleware's fenced
// rings and floods. A rank blocks only inside a call: one Proc.Await per
// computation or collective.
//
// Every rank accounts its virtual time into the paper's three buckets:
// computation, communication (data transfer) and synchronization (control
// transfer / waiting for partners) — the decomposition of §3.2.
package mpi

import (
	"fmt"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/work"
)

// Accounting is the per-rank time and volume bookkeeping.
type Accounting struct {
	Comp float64 // seconds spent computing
	Comm float64 // seconds in data transfer
	Sync float64 // seconds waiting for partners / control transfer
	Lost float64 // seconds of work discarded by a crash and recomputed

	BytesSent int64
	BytesRecv int64
}

// Total returns Comp+Comm+Sync+Lost.
func (a Accounting) Total() float64 { return a.Comp + a.Comm + a.Sync + a.Lost }

// Sub returns a − b field-wise (for per-phase deltas).
func (a Accounting) Sub(b Accounting) Accounting {
	return Accounting{
		Comp:      a.Comp - b.Comp,
		Comm:      a.Comm - b.Comm,
		Sync:      a.Sync - b.Sync,
		Lost:      a.Lost - b.Lost,
		BytesSent: a.BytesSent - b.BytesSent,
		BytesRecv: a.BytesRecv - b.BytesRecv,
	}
}

// Add accumulates b into a.
func (a *Accounting) Add(b Accounting) {
	a.Comp += b.Comp
	a.Comm += b.Comm
	a.Sync += b.Sync
	a.Lost += b.Lost
	a.BytesSent += b.BytesSent
	a.BytesRecv += b.BytesRecv
}

// Observer receives a job's events: every interval of every rank, and
// every collective call once, as rank 0 makes it. A *trace.Collector
// keeps the intervals and a *perf.Timeline the calls; each ignores the
// other event.
type Observer interface {
	Interval(trace.Event)
	Collective(trace.Call)
}

// World is one simulated MPI job.
type World struct {
	M        *cluster.Machine
	Cost     cluster.CostModel
	Observer Observer      // optional: the job's intervals and collective calls
	Obs      *obs.Registry // optional: transport metrics and per-(kind, rank) interval counters
	Wd       Watchdog      // zero value: blocking waits are unbounded
	ranks    []*Rank

	// free holds the finished transfers newTransfer reuses. Only the
	// process holding control touches it, so it needs no lock.
	free []*transfer

	// Registry-backed transport metrics, created once per job when Obs is
	// attached (nil handles otherwise; every hook is nil-gated).
	mMsgBytes *obs.Histogram
	mMsgs     *obs.Counter
	mColl     map[string]*obs.Histogram
}

// collOps are the latency histograms' op labels: a collective's kind, a
// sparse all-to-all's counted as alltoallv.
var collOps = []string{"barrier", "allreduce", "allgatherv", "alltoallv"}

// initMetrics creates the world's transport metric handles on the
// registry.
func (w *World) initMetrics() {
	reg := w.Obs
	if reg == nil {
		return
	}
	// Message sizes from 64 B to ~1 GB; collective latencies from 1 µs to
	// ~1000 s of virtual time.
	w.mMsgBytes = reg.Histogram("repro_mpi_message_bytes",
		"point-to-point message payload sizes", obs.ExpBuckets(64, 4, 13))
	w.mMsgs = reg.Counter("repro_mpi_messages_total",
		"point-to-point messages initiated")
	w.mColl = map[string]*obs.Histogram{}
	for _, op := range collOps {
		w.mColl[op] = reg.Histogram("repro_mpi_collective_seconds",
			"per-rank collective latency (virtual seconds)",
			obs.ExpBuckets(1e-6, 10, 10), obs.L("op", op))
	}
}

// observeMsg books one initiated point-to-point message.
func (w *World) observeMsg(bytes int) {
	if w.mMsgs == nil {
		return
	}
	w.mMsgs.Inc()
	w.mMsgBytes.Observe(float64(bytes))
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank is one MPI process.
type Rank struct {
	W  *World
	ID int
	P  *sim.Proc

	inbox   []*message
	waiting bool // parked inside a matching loop
	crashed bool // set by an injected crash; the call's next step aborts the rank
	acct    Accounting
	call    call // the blocking call in flight

	// partners holds the rank's entries of AlltoallvSparse's dense
	// matrix, reused across calls.
	partners []sparseEntry

	// mTrace caches the rank's repro_trace_* handles per interval kind,
	// created on the kind's first interval (nil without a registry). Only
	// the rank's own process touches it.
	mTrace map[trace.Kind]traceCounters
}

// Size returns the world size.
func (r *Rank) Size() int { return r.W.Size() }

// Now returns the rank's current virtual time.
func (r *Rank) Now() float64 { return r.P.Now() }

// Acct returns a snapshot of the rank's accounting.
func (r *Rank) Acct() Accounting { return r.acct }

// Compute advances virtual time by d seconds of computation. A straggler
// fault in effect on the rank's node at the start of the interval scales
// the whole interval. Zero seconds still take one event.
func (r *Rank) Compute(d float64) {
	if d < 0 {
		panic("mpi: negative compute time")
	}
	c := &r.call
	c.plan[0], c.n = prim{kind: primCompute, d: d}, 1
	r.await()
}

// chargeComp books d seconds of computation starting now, scaled by the
// straggler fault in effect on the rank's node, and returns the scaled
// time.
func (r *Rank) chargeComp(d float64) float64 {
	d *= r.W.M.ComputeScaleAt(r.Now(), r.W.M.NodeOf(r.ID).ID)
	r.acct.Comp += d
	return d
}

// traceCounters are one rank's interval counters for one kind.
type traceCounters struct {
	seconds, events *obs.Counter
}

// traceEvent emits [t0, now]: every compute, send, recv and sync interval
// of the transport goes through here, so an unobserved job leaves at once.
func (r *Rank) traceEvent(kind trace.Kind, label string, t0 float64) {
	if r.W.Observer == nil && r.W.Obs == nil {
		return
	}
	r.TraceSpan(kind, label, t0, r.Now())
}

// TraceSpan emits an arbitrary labelled interval (the parallel MD uses it
// for its phase background lanes): the observer receives it when one is
// attached, and the registry counts it. Intervals with end < start are
// dropped.
func (r *Rank) TraceSpan(kind trace.Kind, label string, start, end float64) {
	if r.W.Observer != nil {
		r.W.Observer.Interval(trace.Event{Rank: r.ID, Kind: kind, Label: label, Start: start, End: end})
	}
	r.CountSpan(kind, start, end)
}

// CountSpan adds an interval to the registry's per-(kind, rank) second
// and event counters without keeping it — for intervals that cover others
// (a whole step) and would only paint over them on a timeline. It is the
// one place the repro_trace_* families are fed, so they read the same
// whether or not an observer is attached.
func (r *Rank) CountSpan(kind trace.Kind, start, end float64) {
	if r.W.Obs == nil || end < start {
		return
	}
	tc, ok := r.mTrace[kind]
	if !ok {
		kl, rl := obs.L("kind", string(kind)), obs.L("rank", strconv.Itoa(r.ID))
		tc = traceCounters{
			seconds: r.W.Obs.Counter("repro_trace_seconds_total",
				"virtual seconds covered by trace intervals, by kind and rank", kl, rl),
			events: r.W.Obs.Counter("repro_trace_events_total",
				"trace intervals recorded, by kind and rank", kl, rl),
		}
		if r.mTrace == nil {
			r.mTrace = map[trace.Kind]traceCounters{}
		}
		r.mTrace[kind] = tc
	}
	tc.seconds.Add(end - start)
	tc.events.Inc()
}

// Metrics returns the job's registry, or nil when it runs without one.
func (r *Rank) Metrics() *obs.Registry { return r.W.Obs }

// ComputeWork charges the CPU time of the counted work through the world's
// cost model.
func (r *Rank) ComputeWork(w work.Counters) {
	r.Compute(r.W.Cost.Seconds(w))
}

// chargeMsg books d seconds of message time into Comm or Sync depending on
// the classification of the call's segment.
func (r *Rank) chargeMsg(d float64, sync bool) {
	if r.call.sync || sync {
		r.acct.Sync += d
	} else {
		r.acct.Comm += d
	}
}

// Options configures one simulated job beyond the machine and cost model.
type Options struct {
	// Observer receives every compute/send/recv/sync interval of every
	// rank (and whatever the layers above emit through Rank.TraceSpan)
	// and every collective call once: a *trace.Collector for timeline
	// rendering and the Chrome export, a *perf.Timeline for the
	// communication log.
	Observer Observer

	// Obs receives the transport metrics (message sizes, collective
	// latencies) and the per-(kind, rank) second and event counters of
	// the same intervals, whether or not an Observer is attached.
	Obs *obs.Registry

	Faults   cluster.FaultModel // optional platform degradation
	Watchdog Watchdog           // zero value: unbounded blocking waits

	// HostWorkers has no effect: every rank charges its compute inline.
	HostWorkers int
}

// RunOpts spawns one rank process per CPU of the configured machine, runs
// fn on each, and returns the per-rank accounting; opts adds tracing,
// fault injection and watchdogs. A simulated deadlock (or a panic escaping
// fn) is returned as an error. Configuration problems come back as errors
// (not panics), and injected crashes / watchdog expiries surface as typed
// errors matching ErrCrashed / ErrTimeout. Partial accounting is returned
// alongside any error so overhead bookkeeping survives aborted jobs.
func RunOpts(cfg cluster.Config, cost cluster.CostModel, opts Options, fn func(*Rank)) ([]Accounting, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	env := sim.NewEnv()
	m := cluster.New(env, cfg)
	m.Faults = opts.Faults
	w := &World{M: m, Cost: cost, Observer: opts.Observer, Obs: opts.Obs, Wd: opts.Watchdog}
	w.initMetrics()
	var panics []interface{}
	for i := 0; i < m.Ranks(); i++ {
		r := &Rank{W: w, ID: i}
		r.call.r = r
		w.ranks = append(w.ranks, r)
	}
	for i := 0; i < m.Ranks(); i++ {
		r := w.ranks[i]
		r.P = env.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			defer func() {
				if v := recover(); v != nil {
					panics = append(panics, v)
				}
			}()
			fn(r)
		})
	}
	if opts.Faults != nil {
		opts.Faults.Install(m)
		spawnKillers(env, w, opts.Faults)
	}
	runErr := env.Run()
	err := selectError(runErr, panics)
	accts := make([]Accounting, len(w.ranks))
	for i, r := range w.ranks {
		accts[i] = r.acct
	}
	return accts, err
}

// spawnKillers schedules one killer process per crash in the fault model.
func spawnKillers(env *sim.Env, w *World, faults cluster.FaultModel) {
	for _, r := range w.ranks {
		t, ok := faults.CrashTime(r.ID)
		if !ok {
			continue
		}
		env.SpawnStep(&killer{rank: r, at: max(t, 0)})
	}
}

// killer is a callback process that, at the scheduled virtual time, marks
// its rank crashed and, if the rank is parked in a matching loop, wakes it
// so the abort is prompt.
type killer struct {
	rank  *Rank
	at    float64
	armed bool
}

func (k *killer) Step(p *sim.Proc) bool {
	if !k.armed {
		k.armed = true
		p.WakeIn(k.at)
		return false
	}
	if !k.rank.P.Done() {
		k.rank.crashed = true
		k.rank.wakeIfWaiting()
	}
	return true
}

func (k *killer) Name() string { return fmt.Sprintf("kill rank%d", k.rank.ID) }

// selectError merges the simulation outcome with recovered rank panics,
// preferring the most specific diagnosis: an injected crash, then a
// watchdog timeout, then any other panic, then the raw simulation error
// (e.g. deadlock). When a crash caused a residual deadlock among the
// survivors, both facts are reported and errors.Is still matches
// ErrCrashed.
func selectError(runErr error, panics []interface{}) error {
	var crash *CrashError
	var timeout *TimeoutError
	var other interface{}
	for _, v := range panics {
		switch e := v.(type) {
		case *CrashError:
			if crash == nil {
				crash = e
			}
		case *TimeoutError:
			if timeout == nil {
				timeout = e
			}
		default:
			if other == nil {
				other = v
			}
		}
	}
	switch {
	case crash != nil && runErr != nil:
		return fmt.Errorf("%w; %v", crash, runErr)
	case crash != nil:
		return crash
	case timeout != nil && runErr != nil:
		return fmt.Errorf("%w; %v", timeout, runErr)
	case timeout != nil:
		return timeout
	case other != nil:
		return fmt.Errorf("mpi: rank panicked: %v", other)
	default:
		return runErr
	}
}
