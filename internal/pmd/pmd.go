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
// The physics is the sequential engine's (md.Engine), executed once per
// step on the workload's tape, so every run's trajectory is md.Engine.Run's
// bit for bit; every rank charges its share of the work, counted from its
// partitions, and its messages through the cluster cost model and the
// simulated MPI/CMPI transports.
package pmd

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/md"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/topol"
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
	// MiddlewareModern is raw MPI with the post-2004 collective
	// algorithms (recursive-doubling allreduce, ring allgather) in place
	// of the MPICH-1-era ones — the ablation that asks how much of the
	// scalability loss was library algorithms rather than network
	// hardware.
	MiddlewareModern
)

func (m MiddlewareKind) String() string {
	switch m {
	case MiddlewareCMPI:
		return "CMPI"
	case MiddlewareModern:
		return "MPI-modern"
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

	// Observer, when non-nil, receives every compute/communication
	// interval of every rank plus the labelled classic/PME phase lanes,
	// and every collective call once, from rank 0. A *trace.Collector
	// keeps the intervals for timeline rendering and the Chrome export; a
	// *perf.Timeline is the communication log, which adds the comm
	// aggregates to Result.Profile (the profile's time samples are
	// Result.Timings with or without it).
	Observer mpi.Observer

	// Obs, when non-nil, receives the live metrics (current step,
	// transport histograms, idle PME ranks) and counts the same
	// intervals an Observer receives, plus each whole step, per kind and
	// rank (repro_trace_*). The counts do not depend on Observer.
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
	// workload, at any rank count and under either decomposition: every
	// run over it, concurrent ones included, is served the states it holds
	// or evaluates the next one into it (the simulated timings still come
	// out of the full event simulation). When it is nil, or when Init
	// needs the physics executed from a checkpoint, the run opens a private
	// tape that keeps a two-step window. Either way the run evaluates ahead
	// of its ranks on one more goroutine, up to its last step.
	Tape *Tape

	// HostWorkers sizes the kernel pool of the engine that evaluates the
	// run's physics; results are bitwise identical at every value, and
	// ≤ 1 runs the kernels inline. It is a run's one host bound
	// (MD.KernelWorkers is not read), set by the run that builds its
	// tape's engine.
	HostWorkers int

	// onStep, when non-nil, runs on every rank at the end of every
	// completed step, before the next step, with the rank's timing split
	// and energy report of the step. The resilient driver hooks its
	// checkpoint recorder here; it reads the rank's snapshot and
	// accounting only, so a step an earlier run evaluated serves it as well
	// as one this run evaluates.
	onStep func(w *worker, step int, timing StepTiming, energy md.EnergyReport)
	// stepBase counts the steps done before the run's first (the resilient
	// driver's stepsDone), so repro_run_step reads the global step.
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
	FinalPos []vec.V           // rank 0 replica after the run: the tape's state, shared and read-only
	Wall     float64           // virtual wall clock of the whole run
	Acct     []mpi.Accounting  // per-rank transport accounting
	Comm     *perf.Timeline    // Config.Observer when it is a communication log; nil otherwise
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

// comms is the middleware abstraction the engine drives: the raw MPI
// collectives (mpiComms), their post-2004 successors (mpiModernComms) and
// mpi.CMPI.
type comms interface {
	Allreduce(bytes int, reduceOp float64)
	Allgatherv(blocks []int)
	Alltoallv(sizes [][]int)
	// AlltoallvSparse is a personalized all-to-all over a sparse size
	// matrix (halo exchanges, migration, pencil transposes): a rank posts
	// only to and from the partners its entries of sizes list, so both the
	// events and the host work of a call scale with the neighbourhood
	// size rather than p. The dense Alltoallv keeps the replicated path's
	// published event sequence byte-stable.
	AlltoallvSparse(sizes *mpi.Sparse)
	Barrier()
}

// mpiComms is the raw MPI collectives of the paper's era.
type mpiComms struct{ r *mpi.Rank }

func (c mpiComms) Allreduce(bytes int, reduceOp float64) { c.r.Allreduce(bytes, reduceOp) }
func (c mpiComms) Allgatherv(blocks []int)               { c.r.Allgatherv(blocks) }
func (c mpiComms) Alltoallv(sizes [][]int)               { c.r.Alltoallv(sizes) }
func (c mpiComms) AlltoallvSparse(sizes *mpi.Sparse)     { c.r.AlltoallvPartners(sizes) }
func (c mpiComms) Barrier()                              { c.r.Barrier() }

// mpiModernComms swaps in the post-2004 collective algorithms.
type mpiModernComms struct{ r *mpi.Rank }

func (c mpiModernComms) Allreduce(bytes int, reduceOp float64) {
	c.r.AllreduceRecursiveDoubling(bytes, reduceOp)
}
func (c mpiModernComms) Allgatherv(blocks []int)           { c.r.AllgathervRing(blocks) }
func (c mpiModernComms) Alltoallv(sizes [][]int)           { c.r.Alltoallv(sizes) }
func (c mpiModernComms) AlltoallvSparse(sizes *mpi.Sparse) { c.r.AlltoallvPartners(sizes) }
func (c mpiModernComms) Barrier()                          { c.r.Barrier() }

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

	// Every run is a run over a tape, whose trajectory is the sequential
	// engine's: cfg.Tape when it serves the run, else a private one.
	t, err := cfg.Tape.open(cfg)
	if err != nil {
		return nil, nil, err
	}
	sh := newShared(p, cfg, t)
	res := &Result{
		P:        p,
		Timings:  make([][]StepTiming, p),
		Energies: make([]md.EnergyReport, 0, cfg.Steps),
	}
	res.Comm, _ = cfg.Observer.(*perf.Timeline)

	opts := mpi.Options{
		Observer: cfg.Observer, Obs: cfg.Obs, Faults: cfg.Faults,
		Watchdog: cfg.Watchdog,
	}
	stopAhead := t.evalAhead(cfg)
	accts, err := mpi.RunOpts(clusterCfg, cost, opts, func(r *mpi.Rank) {
		newWorker(r, cfg, sh).run(res)
	})
	res.Acct = accts
	stopAhead()
	t.close(err == nil && len(res.Energies) == cfg.Steps)
	return res, accts, err
}
