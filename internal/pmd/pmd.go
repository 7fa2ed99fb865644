// Package pmd is the parallel CHARMM-like molecular dynamics engine — the
// computation whose performance the paper characterizes. It runs the
// replicated-data atom decomposition CHARMM used on message-passing
// machines:
//
//   - every rank holds a full coordinate replica;
//   - bonded terms, the nonbonded pair list and the 1-4 list are block-
//     partitioned; partial forces are combined with a global force
//     reduction; positions propagate with an all-gather (the paper's
//     "all-to-all collective" in the classic energy calculation);
//   - PME runs slab-decomposed: per-rank charge spreading, a personalized
//     all-to-all grid assembly, distributed 3-D FFTs with all-to-all
//     transposes (the "all-to-all personalized communication" of Fig. 2),
//     a gather of the convolved potential and local force interpolation.
//
// Every rank executes its real share of the physics (the results are
// verified against the sequential engine) while virtual time is charged
// through the cluster cost model and the simulated MPI/CMPI transports.
package pmd

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/md"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/topol"
	"repro/internal/trace"
	"repro/internal/vec"
)

// MiddlewareKind selects the communication middleware factor of the
// paper's experimental design (§3.1).
type MiddlewareKind int

const (
	// MiddlewareMPI uses raw MPI calls: blocking point-to-point plus the
	// library's tree collectives and MPI barriers.
	MiddlewareMPI MiddlewareKind = iota
	// MiddlewareCMPI routes everything through the CHARMM-MPI portability
	// layer (split non-blocking calls, ring collectives, synchronization
	// by repeated 1-byte neighbour exchanges).
	MiddlewareCMPI
)

func (m MiddlewareKind) String() string {
	if m == MiddlewareCMPI {
		return "CMPI"
	}
	return "MPI"
}

// Config configures a parallel run.
type Config struct {
	System     *topol.System // shared read-only topology
	MD         md.Config     // must enable PME (the paper's measured mode)
	Steps      int
	Middleware MiddlewareKind

	// Decomp selects the work decomposition. The zero value is the
	// paper's replicated-data decomposition with slab PME; DecompDomain
	// runs the spatial domain decomposition with 2-D pencil PME (the
	// scaling-study path that breaks the 8-rank ceiling). Run validates
	// the rank count against the decomposition's tiling constraints and
	// returns a *DecompError when it cannot tile.
	Decomp DecompKind

	// ModernCollectives replaces the MPICH-1-era algorithms with the
	// post-2004 ones (recursive-doubling allreduce, ring allgather) — the
	// ablation that asks how much of the scalability loss was library
	// algorithms rather than network hardware. MPI middleware only.
	ModernCollectives bool

	// Tracer, when non-nil, keeps every compute/communication interval of
	// every rank plus the labelled classic/PME phase lanes, for timeline
	// rendering and the Chrome export.
	Tracer *trace.Collector

	// Obs, when non-nil, receives the live metrics (current step,
	// transport histograms, idle PME ranks) and counts the same
	// intervals a Tracer would keep, plus each whole step, per kind and
	// rank (repro_trace_*). The counts do not depend on Tracer.
	Obs *obs.Registry

	// Init, when non-nil, starts the run from a checkpoint instead of the
	// system's build-time state (same atom count and timestep required).
	Init *md.Checkpoint

	// Faults, when non-nil, degrades the simulated platform.
	Faults cluster.FaultModel

	// Watchdog bounds blocking waits in the transport; the zero value
	// leaves waits unbounded (a lost partner becomes a sim deadlock).
	Watchdog mpi.Watchdog

	// Tape, when non-nil, memoizes the physics across runs of the same
	// workload, decomposition and rank count: an empty tape records this
	// run's physics (the replicated path's per-segment work counters, the
	// domain path's canonical snapshots), a completed tape replays it
	// instead of executing the MD kernels (the simulated timings still come
	// out of the full event simulation). Ignored when Init or a step hook
	// needs real physics, or when the tape was recorded for a
	// different decomposition, rank count or step count.
	Tape *Tape

	// HostWorkers > 1 executes compute segments of different ranks
	// concurrently on that many host goroutines; results are bitwise
	// identical to the serial schedule (see internal/sim). ≤ 1 runs
	// everything inline.
	HostWorkers int

	// OnStep, when non-nil, runs on rank 0 after every completed step
	// with the global step index, the step's classic/PME timing split
	// and its energy report. Unlike Init it does not disable
	// the physics tape: a replayed run substitutes the taped energies
	// before the hook fires, so a memoized run streams the same
	// telemetry a real one does. Under RunResilient the index is global
	// across attempts, and steps replayed after a rewind re-fire —
	// consumers that need each step once must filter monotonically.
	OnStep func(step int, timing StepTiming, energy md.EnergyReport)

	// Perf, when non-nil, is the communication log the run feeds: every
	// collective's kind and byte matrix, recorded once per invocation from
	// rank 0's view. It adds the comm aggregates to Result.Profile; the
	// profile's time samples are Result.Timings with or without it.
	Perf *perf.Timeline

	// onStep, when non-nil, runs on every rank at the end of every
	// completed step (after the step barrier, before the next step). The
	// resilient driver hooks its checkpoint recorder here.
	onStep func(w *worker, step int)

	// stepBase is the global-step offset the resilient driver applies to
	// the OnStep indices of resumed attempts.
	stepBase int
}

// PhaseSample is the measured decomposition of one phase of one step on
// one rank: compute/comm/sync seconds, the phase's elapsed virtual time
// and the bytes sent during it.
type PhaseSample = perf.Sample

// StepTiming is the per-step classic/PME split of §3.2.
type StepTiming = perf.StepTiming

// Result is the outcome of one parallel run.
type Result struct {
	P        int               // ranks
	Timings  [][]StepTiming    // [rank][step]
	Energies []md.EnergyReport // per step (identical on all ranks; rank 0's copy)
	FinalPos []vec.V           // rank 0 replica after the run
	Wall     float64           // virtual wall clock of the whole run
	Acct     []mpi.Accounting  // per-rank transport accounting
	Comm     *perf.Timeline    // the communication log the run fed (Config.Perf; nil without one)
}

// RecordObs publishes the run's measured decomposition into reg as
// counters: repro_phase_seconds_total{rank,phase,bucket} (§3.2's
// computation/communication/synchronization split per phase per rank),
// repro_phase_bytes_total{rank,phase}, repro_run_wall_seconds,
// repro_run_steps_total and repro_run_ranks. The per-rank sums equal the
// run's reported wall decomposition exactly — the counters are built from
// the same PhaseSamples the Result reports.
func (r *Result) RecordObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for rank := range r.Timings {
		var tot [2]PhaseSample
		for _, st := range r.Timings[rank] {
			tot[0].Add(st.Classic)
			tot[1].Add(st.PME)
		}
		rl := obs.L("rank", fmt.Sprintf("%d", rank))
		for i, phase := range []string{"classic", "pme"} {
			pl := obs.L("phase", phase)
			help := "virtual seconds of the simulated cluster per rank, phase and time class (§3.2 decomposition)"
			reg.Counter("repro_phase_seconds_total", help, rl, pl, obs.L("bucket", "compute")).Add(tot[i].Comp)
			reg.Counter("repro_phase_seconds_total", help, rl, pl, obs.L("bucket", "comm")).Add(tot[i].Comm)
			reg.Counter("repro_phase_seconds_total", help, rl, pl, obs.L("bucket", "sync")).Add(tot[i].Sync)
			reg.Counter("repro_phase_wall_seconds_total",
				"virtual wall seconds per rank and phase", rl, pl).Add(tot[i].Wall)
			reg.Counter("repro_phase_bytes_total",
				"bytes sent per rank and phase", rl, pl).Add(float64(tot[i].Bytes))
		}
		if rank < len(r.Acct) {
			a := r.Acct[rank]
			reg.Counter("repro_mpi_bytes_sent_total", "transport bytes sent per rank", rl).Add(float64(a.BytesSent))
			reg.Counter("repro_mpi_bytes_recv_total", "transport bytes received per rank", rl).Add(float64(a.BytesRecv))
		}
	}
	reg.Gauge("repro_run_ranks", "ranks in the last recorded run").Set(float64(r.P))
	reg.Counter("repro_run_wall_seconds_total", "virtual wall clock of recorded runs").Add(r.Wall)
	steps := 0
	if len(r.Timings) > 0 {
		steps = len(r.Timings[0])
	}
	reg.Counter("repro_run_steps_total", "MD steps completed in recorded runs").Add(float64(steps))
}

// PhaseTotals sums a phase over steps and returns the per-rank maxima the
// paper plots: the wall time of the slowest rank and its breakdown.
func (r *Result) PhaseTotals() (classic, pme PhaseSample) {
	for rank := range r.Timings {
		var c, p PhaseSample
		for _, st := range r.Timings[rank] {
			c.Add(st.Classic)
			p.Add(st.PME)
		}
		if c.Wall > classic.Wall {
			classic = c
		}
		if p.Wall > pme.Wall {
			pme = p
		}
	}
	return classic, pme
}

// comms is the middleware abstraction the engine drives; *mpi.Rank (the
// raw MPI collectives) and *cmpi.Middleware both satisfy it.
type comms interface {
	Allreduce(bytes int, reduceOp float64)
	Allgatherv(blocks []int)
	Alltoallv(sizes [][]int)
	// AlltoallvSparse is a personalized all-to-all over a mostly-zero
	// size matrix (halo exchanges, migration, pencil transposes): pairs
	// that move no bytes in either direction skip their exchange round
	// entirely, so the event count scales with the neighbourhood size
	// rather than p². The dense Alltoallv keeps the replicated path's
	// published event sequence byte-stable.
	AlltoallvSparse(sizes [][]int)
	Barrier()
}

// mpiModernComms swaps in the post-2004 collective algorithms.
type mpiModernComms struct{ r *mpi.Rank }

func (c mpiModernComms) Allreduce(bytes int, reduceOp float64) {
	c.r.AllreduceRecursiveDoubling(bytes, reduceOp)
}
func (c mpiModernComms) Allgatherv(blocks []int)       { c.r.AllgathervRing(blocks) }
func (c mpiModernComms) Alltoallv(sizes [][]int)       { c.r.Alltoallv(sizes) }
func (c mpiModernComms) AlltoallvSparse(sizes [][]int) { c.r.AlltoallvSparse(sizes) }
func (c mpiModernComms) Barrier()                      { c.r.Barrier() }

// Run executes the parallel MD under the given cluster configuration.
func Run(clusterCfg cluster.Config, cost cluster.CostModel, cfg Config) (*Result, error) {
	res, _, err := runAttempt(clusterCfg, cost, cfg)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runAttempt executes one simulation attempt and returns the (possibly
// partial) result and per-rank accounting even when the attempt aborts
// with a crash or timeout — the resilient driver needs both to account
// for the lost work.
func runAttempt(clusterCfg cluster.Config, cost cluster.CostModel, cfg Config) (*Result, []mpi.Accounting, error) {
	if cfg.System == nil {
		return nil, nil, fmt.Errorf("pmd: nil system")
	}
	if !cfg.MD.UsePME {
		return nil, nil, fmt.Errorf("pmd: the measured workload requires PME (cfg.MD.UsePME)")
	}
	if cfg.Steps < 1 {
		return nil, nil, fmt.Errorf("pmd: need at least one step")
	}
	if err := clusterCfg.Validate(); err != nil {
		return nil, nil, err
	}
	p := clusterCfg.Nodes * clusterCfg.CPUsPerNode
	if err := ValidateDecomp(cfg.Decomp, p, cfg.MD.PME); err != nil {
		return nil, nil, err
	}

	// Tape eligibility: checkpoint starts and step hooks need the physics
	// actually executed, and a completed tape only fits the decomposition,
	// rank count and step count it was recorded for.
	tape := cfg.Tape
	if cfg.Init != nil || cfg.onStep != nil {
		tape = nil
	}
	if tape.Complete() && !tape.fits(cfg.Decomp, p, cfg.Steps) {
		tape = nil
	}
	replaying := tape.Complete()
	if tape != nil && !replaying {
		tape.begin(cfg.Decomp, p, cfg.Steps)
	}

	// The initial state comes from the sequential engine so trajectories
	// are directly comparable; every rank starts from an identical copy.
	// A replayed run serves its physics from the tape — the replicated
	// path's energies and positions, the domain path's snapshots and
	// geometry — and builds no seed engine, evaluator or geometry.
	var seed *md.Engine
	if !replaying {
		seed = md.NewEngine(cfg.System, cfg.MD)
		if cfg.Init != nil {
			if err := seed.Restore(cfg.Init); err != nil {
				return nil, nil, err
			}
		}
	}

	sh := newShared(p, cfg, seed, tape)
	res := &Result{
		P:        p,
		Timings:  make([][]StepTiming, p),
		Energies: make([]md.EnergyReport, 0, cfg.Steps),
		Comm:     cfg.Perf,
	}

	opts := mpi.Options{
		Tracer: cfg.Tracer, Obs: cfg.Obs, Faults: cfg.Faults,
		Watchdog: cfg.Watchdog, HostWorkers: cfg.HostWorkers,
	}
	accts, err := mpi.RunOpts(clusterCfg, cost, opts, func(r *mpi.Rank) {
		w := newWorker(r, cfg, sh, seed, tape)
		w.run(res)
	})
	res.Acct = accts
	if tape != nil && !replaying {
		if err != nil {
			tape.reset()
		} else {
			tape.finish(res, sh.canon)
		}
	}
	return res, accts, err
}
