// Package mpi implements a simulated MPI subset on top of the
// discrete-event cluster model: blocking and non-blocking point-to-point
// messages (eager and rendezvous protocols, NIC occupancy, interrupt-CPU
// serialization, TCP stall injection) and the MPICH-1-era collective
// algorithms the paper's CHARMM runs used (binomial broadcast/reduce,
// reduce+bcast allreduce, linear gather, pairwise all-to-all, dissemination
// barrier).
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

// World is one simulated MPI job.
type World struct {
	M      *cluster.Machine
	Cost   cluster.CostModel
	Tracer *trace.Collector // optional: keeps every interval for timeline rendering
	Obs    *obs.Registry    // optional: transport metrics and per-(kind, rank) interval counters
	Wd     Watchdog         // zero value: blocking waits are unbounded
	ranks  []*Rank

	// free holds the finished transfers newTransfer reuses. Only the
	// process holding control touches it, so it needs no lock.
	free []*transfer

	// Registry-backed transport metrics, created once per job when Obs is
	// attached (nil handles otherwise; every hook is nil-gated).
	mMsgBytes *obs.Histogram
	mMsgs     *obs.Counter
	mColl     map[string]*obs.Histogram
}

// collOps are the instrumented collective operations, in the latency
// histograms' op label.
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

// observeColl books one rank's latency through a collective.
func (w *World) observeColl(op string, d float64) {
	if w.mColl == nil {
		return
	}
	w.mColl[op].Observe(d)
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
	crashed bool // set by an injected crash; next yield aborts the rank
	acct    Accounting
	call    call // the blocking call in flight

	// mTrace caches the rank's repro_trace_* handles per interval kind,
	// created on the kind's first interval (nil without a registry). Only
	// the rank's own process touches it.
	mTrace map[trace.Kind]traceCounters

	// SyncClass forces all message time into the Sync bucket while true —
	// the CMPI middleware turns it on around its synchronization-by-
	// messages pattern (§4.2 of the paper).
	SyncClass bool
}

// Size returns the world size.
func (r *Rank) Size() int { return r.W.Size() }

// Now returns the rank's current virtual time.
func (r *Rank) Now() float64 { return r.P.Now() }

// Acct returns a snapshot of the rank's accounting.
func (r *Rank) Acct() Accounting { return r.acct }

// Compute advances virtual time by d seconds of computation. A straggler
// fault in effect on the rank's node at the start of the interval scales
// the whole interval.
func (r *Rank) Compute(d float64) {
	if d < 0 {
		panic("mpi: negative compute time")
	}
	r.checkCrash()
	t0 := r.Now()
	r.P.Advance(r.chargeComp(d))
	r.checkCrash()
	r.traceEvent(trace.KindCompute, "compute", t0)
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
	if r.W.Tracer == nil && r.W.Obs == nil {
		return
	}
	r.TraceSpan(kind, label, t0, r.Now())
}

// TraceSpan emits an arbitrary labelled interval (the parallel MD uses it
// for its phase background lanes): the collector keeps it
// when one is attached, and the registry counts it. Intervals with
// end < start are dropped.
func (r *Rank) TraceSpan(kind trace.Kind, label string, start, end float64) {
	if r.W.Tracer != nil {
		_ = r.W.Tracer.Add(trace.Event{Rank: r.ID, Kind: kind, Label: label, Start: start, End: end})
	}
	r.CountSpan(kind, start, end)
}

// CountSpan adds an interval to the registry's per-(kind, rank) second
// and event counters without keeping it — for intervals that cover others
// (a whole step) and would only paint over them on a timeline. It is the
// one place the repro_trace_* families are fed, so they read the same
// whether or not a collector is attached.
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

// ComputeSeg executes seg — pure computation that touches only rank-local
// state and never the simulator — and charges the cost of the counters seg
// fills, exactly as running seg inline followed by ComputeWork would.
// minWork must be a guaranteed lower bound on the counters seg will produce
// (the zero value is always safe); under host parallelism (Options.
// HostWorkers > 1) the bound lets the scheduler overlap segments of
// different ranks while reproducing the serial event order bit for bit.
// Straggler faults are sampled at the segment start, like Compute.
func (r *Rank) ComputeSeg(minWork work.Counters, seg func(*work.Counters)) {
	r.checkCrash()
	t0 := r.Now()
	scale := r.W.M.ComputeScaleAt(t0, r.W.M.NodeOf(r.ID).ID)
	lb := scale * r.W.Cost.Seconds(minWork)
	d := r.P.Compute(lb, func() float64 {
		var w work.Counters
		seg(&w)
		return scale * r.W.Cost.Seconds(w)
	})
	r.acct.Comp += d
	r.checkCrash()
	r.traceEvent(trace.KindCompute, "compute", t0)
}

// chargeMsg books d seconds of message time into Comm or Sync depending on
// the rank's current classification.
func (r *Rank) chargeMsg(d float64, sync bool) {
	if r.SyncClass || sync {
		r.acct.Sync += d
	} else {
		r.acct.Comm += d
	}
}

// Options configures one simulated job beyond the machine and cost model.
type Options struct {
	// Tracer keeps every compute/send/recv/sync interval of every rank
	// (and whatever the layers above emit through Rank.TraceSpan) for
	// timeline rendering and the Chrome export.
	Tracer *trace.Collector

	// Obs receives the transport metrics (message sizes, collective
	// latencies) and the per-(kind, rank) second and event counters of
	// the same intervals, whether or not a Tracer is attached.
	Obs *obs.Registry

	Faults   cluster.FaultModel // optional platform degradation
	Watchdog Watchdog           // zero value: unbounded blocking waits

	// HostWorkers sizes the host worker pool for ComputeSeg closures:
	// > 1 overlaps compute segments of different ranks on that many host
	// goroutines (output stays bitwise-identical to the serial schedule);
	// ≤ 1 runs every segment inline on its rank's own goroutine.
	HostWorkers int
}

// Run spawns one rank process per CPU of the configured machine, runs fn on
// each, and returns the per-rank accounting. A simulated deadlock (or a
// panic escaping fn) is returned as an error.
func Run(cfg cluster.Config, cost cluster.CostModel, fn func(*Rank)) ([]Accounting, error) {
	return RunOpts(cfg, cost, Options{}, fn)
}

// RunOpts is the full-control entry point: tracing, fault injection and
// watchdogs. Configuration problems come back as errors (not panics), and
// injected crashes / watchdog expiries surface as typed errors matching
// ErrCrashed / ErrTimeout. Partial accounting is returned alongside any
// error so overhead bookkeeping survives aborted jobs.
func RunOpts(cfg cluster.Config, cost cluster.CostModel, opts Options, fn func(*Rank)) ([]Accounting, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	env := sim.NewEnv()
	env.SetWorkers(opts.HostWorkers)
	m := cluster.New(env, cfg)
	m.Faults = opts.Faults
	w := &World{M: m, Cost: cost, Tracer: opts.Tracer, Obs: opts.Obs, Wd: opts.Watchdog}
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
