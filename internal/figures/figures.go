// Package figures regenerates every figure of the paper's evaluation
// (Figs. 3–9) plus the full-factorial table of §3.1 from simulated runs of
// the parallel MD workload. The evaluation is one table of experiment
// cells read many ways: a figure (registry.go) is a list of cells and a
// list of columns over their Rows. A Suite caches run results so figures
// sharing the same configuration (3/4, 5/6/7) reuse one run per cell.
package figures

import (
	"fmt"
	"runtime"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/pmd"
	"repro/internal/topol"
)

// Breakdown is a comp/comm/sync time split in seconds.
type Breakdown struct {
	Comp, Comm, Sync float64
}

// Total returns the summed time.
func (b Breakdown) Total() float64 { return b.Comp + b.Comm + b.Sync }

// Percent returns the split in percent of the total (0 for an empty total).
func (b Breakdown) Percent() (comp, comm, sync float64) {
	t := b.Total()
	if t == 0 {
		return 0, 0, 0
	}
	return 100 * b.Comp / t, 100 * b.Comm / t, 100 * b.Sync / t
}

func breakdownOf(s pmd.PhaseSample) Breakdown {
	return Breakdown{Comp: s.Comp, Comm: s.Comm, Sync: s.Sync}
}

// Config parameterizes the reproduction suite.
type Config struct {
	Steps       int               // MD steps per measurement (paper: 10)
	Procs       []int             // processor counts (paper: 1, 2, 4, 8)
	SystemSeed  uint64            // synthetic-structure stream
	ClusterSeed uint64            // network stall stream
	Cost        cluster.CostModel //
	MD          md.Config         // PME MD configuration

	// Workers bounds the host parallelism: the cells of a batch in flight
	// together and, inside each cell, the goroutines overlapping compute
	// segments of different simulated ranks. 0 picks GOMAXPROCS, 1 runs one
	// cell at a time on the serial schedule. Figure output and RunStats
	// are bitwise identical across all settings.
	Workers int

	// FaultSpec, when non-empty, is a fault-DSL scenario injected into
	// every run of the suite (see internal/fault). It is part of the run
	// cache key, so faulted and healthy results never mix.
	FaultSpec string

	// Decomp selects the decomposition the paper figures run under
	// (default: replicated data, the strategy the paper measures). The
	// ceiling study always sweeps both and ignores this knob.
	Decomp pmd.DecompKind

	// CeilingProcs are the processor counts of the ceiling study — the
	// sweep past the paper's 8-rank wall where the replicated/slab
	// strategy stops tiling and the spatial decomposition keeps going.
	CeilingProcs []int

	// RecoveryProcs and RecoveryCrashes shape the lost-work study: domain
	// rank counts × injected crash counts, each run under both the global
	// rewind and the localized epoch-replay strategy.
	RecoveryProcs   []int
	RecoveryCrashes []int

	// Obs, when non-nil, is the registry the suite publishes its cache and
	// tape counters into (repro_figures_*). A nil Obs backs the counters
	// with a private registry; Stats() reads whichever registry is active.
	Obs *obs.Registry
}

// Default returns the paper's measurement protocol.
func Default() Config {
	mdc := md.PMEDefaultConfig()
	mdc.Temperature = 300
	return Config{
		Steps:           10,
		Procs:           []int{1, 2, 4, 8},
		CeilingProcs:    []int{1, 8, 16, 64, 256, 1024},
		RecoveryProcs:   []int{16, 64, 256},
		RecoveryCrashes: []int{1, 2},
		SystemSeed:      1,
		ClusterSeed:     1,
		Cost:            cluster.PentiumIII1GHz(),
		MD:              mdc,
	}
}

// Quick returns a reduced protocol for tests: fewer steps and processor
// counts so the suite runs in seconds.
func Quick() Config {
	c := Default()
	c.Steps = 2
	c.Procs = []int{1, 2, 4}
	c.CeilingProcs = []int{1, 8, 16, 64}
	c.RecoveryProcs = []int{16, 64}
	c.RecoveryCrashes = []int{1}
	return c
}

// RunStats counts the suite's simulation work: how often the run cache
// served a figure from memory and how often the physics tape replaced a
// kernel execution with a counter replay.
type RunStats struct {
	Misses      int // unique configurations actually simulated
	Hits        int // cells served from the run cache
	TapeRecords int // runs that recorded a physics tape
	TapeReplays int // runs that replayed one instead of executing kernels
}

// Suite runs and caches the experiment cells. Two layers of memoization
// back it: a content-keyed run cache (platform × middleware × workload ×
// fault scenario — every unique configuration simulates exactly once per
// Suite lifetime) and, below it, physics tapes per decomposition and rank
// count that let cache *misses* sharing both skip the MD kernels and
// replay the recorded physics through the event simulation.
//
// A Suite serves one caller at a time: its methods must not be called
// concurrently. The concurrency is inside RunCells, which keeps a batch's
// cache misses in flight together and all bookkeeping on the caller.
type Suite struct {
	Cfg    Config
	sys    *topol.System
	cache  map[string]*pmd.Result
	tapes  map[tapeKey]*pmd.Tape // complete tapes by decomposition and rank count
	faults cluster.FaultModel

	// Registry-backed run counters (the RunStats view reads the first four).
	mHits, mMisses, mRecords, mReplays, mCellSeconds *obs.Counter
}

// NewSuite builds the molecular system once, relaxes the strained built
// geometry (so the measured trajectory is stable), and prepares an empty
// result cache. An invalid FaultSpec panics (it is programmer input; the
// cmd binaries validate user specs before building a suite).
func NewSuite(cfg Config) *Suite {
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: cfg.SystemSeed})
	md.Relax(sys, 80)
	return newSuite(cfg, sys)
}

// newSuite is NewSuite on a system that is already built and relaxed; a
// suite only ever reads it, so suites may share one.
func newSuite(cfg Config, sys *topol.System) *Suite {
	// An empty ladder is the paper's: the plans sweep and index them.
	paper := Default()
	if len(cfg.Procs) == 0 {
		cfg.Procs = paper.Procs
	}
	if len(cfg.CeilingProcs) == 0 {
		cfg.CeilingProcs = paper.CeilingProcs
	}
	if len(cfg.RecoveryProcs) == 0 {
		cfg.RecoveryProcs = paper.RecoveryProcs
	}
	if len(cfg.RecoveryCrashes) == 0 {
		cfg.RecoveryCrashes = paper.RecoveryCrashes
	}
	s := &Suite{
		Cfg:   cfg,
		sys:   sys,
		cache: map[string]*pmd.Result{},
		tapes: map[tapeKey]*pmd.Tape{},
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.mHits = reg.Counter("repro_figures_cache_hits_total", "experiment cells served from the run cache")
	s.mMisses = reg.Counter("repro_figures_cache_misses_total", "unique experiment configurations simulated")
	s.mRecords = reg.Counter("repro_figures_tape_records_total", "runs that recorded a physics tape")
	s.mReplays = reg.Counter("repro_figures_tape_replays_total", "runs that replayed a tape instead of executing kernels")
	s.mCellSeconds = reg.Counter("repro_figures_cell_seconds_total", "host seconds spent inside simulated cells (over a batch's wall: mean cells in flight)")
	if cfg.FaultSpec != "" {
		sc, err := fault.ParseSpec(cfg.FaultSpec)
		if err != nil {
			panic("figures: bad fault spec: " + err.Error())
		}
		inj, err := fault.NewInjector(sc, fault.Options{})
		if err != nil {
			panic("figures: bad fault scenario: " + err.Error())
		}
		s.faults = inj
	}
	return s
}

// System exposes the workload (3552 atoms in the default configuration).
func (s *Suite) System() *topol.System { return s.sys }

// Stats returns the cache and tape counters accumulated so far — a view
// over the registry-backed counters (shared with Config.Obs when set).
func (s *Suite) Stats() RunStats {
	return RunStats{
		Misses:      int(s.mMisses.Value()),
		Hits:        int(s.mHits.Value()),
		TapeRecords: int(s.mRecords.Value()),
		TapeReplays: int(s.mReplays.Value()),
	}
}

// CellSeconds returns the host seconds spent inside simulated cells so far.
// Divided by the wall time of the batches that ran them it is the mean
// number of cells in flight.
func (s *Suite) CellSeconds() float64 { return s.mCellSeconds.Value() }

// workers resolves Cfg.Workers to the bound it sets, never below 1: the
// cells a batch keeps in flight and, inside each, the host goroutines for
// compute segments (0 = one per host CPU; a negative value means 1).
func (s *Suite) workers() int {
	if w := s.Cfg.Workers; w != 0 {
		return max(w, 1)
	}
	return runtime.GOMAXPROCS(0)
}

// Run returns the (cached) result of one experiment cell under the
// suite's configured decomposition. nodes×cpus ranks run `p = nodes·cpus`
// processors; callers pass total processors and CPUs per node.
func (s *Suite) Run(net netmodel.Params, procs, cpusPerNode int, mw pmd.MiddlewareKind) (*pmd.Result, error) {
	return s.RunDecomp(net, procs, cpusPerNode, mw, s.Cfg.Decomp)
}

// RunDecomp is Run with an explicit decomposition — a batch of one,
// executed inline on the caller.
func (s *Suite) RunDecomp(net netmodel.Params, procs, cpusPerNode int, mw pmd.MiddlewareKind, decomp pmd.DecompKind) (*pmd.Result, error) {
	if procs%cpusPerNode != 0 {
		return nil, fmt.Errorf("figures: %d processors not divisible by %d CPUs/node", procs, cpusPerNode)
	}
	res, err := s.RunCells([]CellKey{s.cell(net, procs, cpusPerNode, mw, decomp)})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
