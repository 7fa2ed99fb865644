// Package figures regenerates every figure of the paper's evaluation
// (Figs. 3–9) plus the full-factorial table of §3.1 from simulated runs of
// the parallel MD workload. A Suite caches run results so figures sharing
// the same configuration (3/4, 5/6/7) reuse one run per cell.
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
	"repro/internal/stats"
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
	// rewind and the localized buddy-restore strategy.
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
// Suite lifetime) and, below it, per-rank-count physics tapes that let
// cache *misses* sharing a rank count skip the MD kernels and replay
// recorded work counters through the event simulation.
//
// A Suite serves one caller at a time: its methods must not be called
// concurrently. The concurrency is inside RunCells, which keeps a batch's
// cache misses in flight together and all bookkeeping on the caller.
type Suite struct {
	Cfg    Config
	sys    *topol.System
	cache  map[string]*pmd.Result
	tapes  map[int]*pmd.Tape // complete tapes by rank count
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
	s := &Suite{
		Cfg:   cfg,
		sys:   sys,
		cache: map[string]*pmd.Result{},
		tapes: map[int]*pmd.Tape{},
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

// ---------------------------------------------------------------------------
// Figure 3: wall clock of the total energy calculation, reference case.

// Fig3Row is one processor count of Fig. 3.
type Fig3Row struct {
	P       int
	Classic float64 // seconds over the measured steps
	PME     float64
}

// Total returns classic+PME.
func (r Fig3Row) Total() float64 { return r.Classic + r.PME }

// sweep lists the MPI, uni-processor cells of nets × procs under the
// suite's decomposition, network by network — the grid Figs. 3–6 and the
// scale-limit table read.
func (s *Suite) sweep(nets []netmodel.Params, procs []int) []CellKey {
	var cells []CellKey
	for _, net := range nets {
		for _, p := range procs {
			cells = append(cells, s.cell(net, p, 1, pmd.MiddlewareMPI, s.Cfg.Decomp))
		}
	}
	return cells
}

// referenceCells are the cells of the reference case (TCP/IP, MPI,
// uni-processor) over the configured processor counts — Figs. 3 and 4.
func (s *Suite) referenceCells() []CellKey {
	return s.sweep([]netmodel.Params{netmodel.TCPGigE()}, s.Cfg.Procs)
}

// Fig3 runs the reference case (TCP/IP, MPI, uni-processor). The programs
// batch plans through core.Study; Fig3 and its sibling one-line wrappers
// (one per plan) are how the tests and benchmarks run one figure alone.
func (s *Suite) Fig3() ([]Fig3Row, error) { return RunPlan(s, s.Fig3Plan()) }

// Fig3Plan is Fig. 3 as a plan.
func (s *Suite) Fig3Plan() Plan[[]Fig3Row] {
	return Plan[[]Fig3Row]{Cells: s.referenceCells(), Fold: func(results []*pmd.Result) ([]Fig3Row, error) {
		var rows []Fig3Row
		for _, res := range results {
			c, pm := res.PhaseTotals()
			rows = append(rows, Fig3Row{P: res.P, Classic: c.Wall, PME: pm.Wall})
		}
		return rows, nil
	}}
}

// ---------------------------------------------------------------------------
// Figure 4: percentage breakdown for the reference case.

// Fig4Row is one processor count of Fig. 4a/4b.
type Fig4Row struct {
	P       int
	Classic Breakdown
	PME     Breakdown
}

func fig4RowOf(res *pmd.Result) Fig4Row {
	c, pm := res.PhaseTotals()
	return Fig4Row{P: res.P, Classic: breakdownOf(c), PME: breakdownOf(pm)}
}

// Fig4 computes the comp/comm/sync percentages of Fig. 4 (same runs as
// Fig. 3).
func (s *Suite) Fig4() ([]Fig4Row, error) { return RunPlan(s, s.Fig4Plan()) }

// Fig4Plan is Fig. 4 as a plan.
func (s *Suite) Fig4Plan() Plan[[]Fig4Row] {
	return Plan[[]Fig4Row]{Cells: s.referenceCells(), Fold: func(results []*pmd.Result) ([]Fig4Row, error) {
		var rows []Fig4Row
		for _, res := range results {
			rows = append(rows, fig4RowOf(res))
		}
		return rows, nil
	}}
}

// ---------------------------------------------------------------------------
// Figures 5 and 6: the network sweep.

// NetworkRows bundles one network's sweep.
type NetworkRows struct {
	Network string
	Rows    []Fig4Row // wall times recoverable via Breakdown.Total
}

// Fig56 runs the three networks (TCP/IP, SCore, Myrinet) over the
// processor counts; Fig. 5 uses the wall times, Fig. 6 the percentages.
func (s *Suite) Fig56() ([]NetworkRows, error) { return RunPlan(s, s.Fig56Plan()) }

// Fig56Plan is the network sweep of Figs. 5 and 6 as a plan.
func (s *Suite) Fig56Plan() Plan[[]NetworkRows] {
	cells := s.sweep(netmodel.All(), s.Cfg.Procs)
	return Plan[[]NetworkRows]{Cells: cells, Fold: func(results []*pmd.Result) ([]NetworkRows, error) {
		var out []NetworkRows
		for i, res := range results {
			if name := cells[i].Cluster.Net.Name; len(out) == 0 || out[len(out)-1].Network != name {
				out = append(out, NetworkRows{Network: name})
			}
			e := &out[len(out)-1]
			e.Rows = append(e.Rows, fig4RowOf(res))
		}
		return out, nil
	}}
}

// ---------------------------------------------------------------------------
// Figure 7: per-node communication speed, average and variability.

// Fig7Row is one (network, processors) cell.
type Fig7Row struct {
	Network string
	P       int
	AvgMBs  float64
	MinMBs  float64
	MaxMBs  float64
}

// Fig7 samples the per-rank per-step communication speed (bytes sent over
// time spent in data transfer) for p ≥ 2.
func (s *Suite) Fig7() ([]Fig7Row, error) { return RunPlan(s, s.Fig7Plan()) }

// Fig7Plan is Fig. 7 as a plan.
func (s *Suite) Fig7Plan() Plan[[]Fig7Row] {
	var cells []CellKey
	for _, net := range netmodel.All() {
		for _, p := range s.Cfg.Procs {
			if p < 2 {
				continue
			}
			cells = append(cells, s.cell(net, p, 1, pmd.MiddlewareMPI, s.Cfg.Decomp))
		}
	}
	return Plan[[]Fig7Row]{Cells: cells, Fold: func(results []*pmd.Result) ([]Fig7Row, error) {
		var out []Fig7Row
		for i, res := range results {
			var speeds []float64
			for _, rankSteps := range res.Timings {
				for _, st := range rankSteps {
					bytes := float64(st.Classic.Bytes + st.PME.Bytes)
					tcomm := st.Classic.Comm + st.PME.Comm
					if tcomm > 0 && bytes > 0 {
						speeds = append(speeds, bytes/tcomm/1e6)
					}
				}
			}
			sum := stats.Summarize(speeds)
			out = append(out, Fig7Row{
				Network: cells[i].Cluster.Net.Name, P: res.P,
				AvgMBs: sum.Mean, MinMBs: sum.Min, MaxMBs: sum.Max,
			})
		}
		return out, nil
	}}
}

// ---------------------------------------------------------------------------
// Figure 8: MPI vs CMPI middleware on the reference network.

// Fig8Row is one (middleware, processors) cell: phase wall times plus the
// total-energy breakdown of Fig. 8b.
type Fig8Row struct {
	Middleware string
	P          int
	Classic    float64
	PME        float64
	Total      Breakdown
}

// Fig8 compares the middlewares on TCP/IP, uni-processor nodes.
func (s *Suite) Fig8() ([]Fig8Row, error) { return RunPlan(s, s.Fig8Plan()) }

// Fig8Plan is Fig. 8 as a plan.
func (s *Suite) Fig8Plan() Plan[[]Fig8Row] {
	var cells []CellKey
	for _, mw := range []pmd.MiddlewareKind{pmd.MiddlewareMPI, pmd.MiddlewareCMPI} {
		for _, p := range s.Cfg.Procs {
			cells = append(cells, s.cell(netmodel.TCPGigE(), p, 1, mw, s.Cfg.Decomp))
		}
	}
	return Plan[[]Fig8Row]{Cells: cells, Fold: func(results []*pmd.Result) ([]Fig8Row, error) {
		var out []Fig8Row
		for i, res := range results {
			c, pm := res.PhaseTotals()
			total := Breakdown{
				Comp: c.Comp + pm.Comp,
				Comm: c.Comm + pm.Comm,
				Sync: c.Sync + pm.Sync,
			}
			out = append(out, Fig8Row{
				Middleware: cells[i].Middleware.String(), P: res.P,
				Classic: c.Wall, PME: pm.Wall, Total: total,
			})
		}
		return out, nil
	}}
}

// ---------------------------------------------------------------------------
// Figure 9: uni- vs dual-processor nodes on TCP/IP and Myrinet.

// Fig9Row is one (network, CPUs-per-node, processors) cell.
type Fig9Row struct {
	Network string
	CPUs    int
	P       int
	Classic float64
	PME     float64
}

// Fig9 sweeps CPUs per node for TCP/IP (9a) and Myrinet (9b). Dual-node
// cells need an even processor count; p=1 reuses the uni-processor cell,
// as on the real machine (one busy CPU on a dual board).
func (s *Suite) Fig9() ([]Fig9Row, error) { return RunPlan(s, s.Fig9Plan()) }

// Fig9Plan is Fig. 9 as a plan.
func (s *Suite) Fig9Plan() Plan[[]Fig9Row] {
	var cells []CellKey
	var rows []Fig9Row // the labels: a row's CPUs is the board, not what p=1 runs on
	for _, net := range []netmodel.Params{netmodel.TCPGigE(), netmodel.MyrinetGM()} {
		for _, cpus := range []int{1, 2} {
			for _, p := range s.Cfg.Procs {
				useCPUs := cpus
				if p == 1 {
					useCPUs = 1
				}
				if p%useCPUs != 0 {
					continue
				}
				cells = append(cells, s.cell(net, p, useCPUs, pmd.MiddlewareMPI, s.Cfg.Decomp))
				rows = append(rows, Fig9Row{Network: net.Name, CPUs: cpus, P: p})
			}
		}
	}
	return Plan[[]Fig9Row]{Cells: cells, Fold: func(results []*pmd.Result) ([]Fig9Row, error) {
		out := append([]Fig9Row(nil), rows...)
		for i, res := range results {
			c, pm := res.PhaseTotals()
			out[i].Classic, out[i].PME = c.Wall, pm.Wall
		}
		return out, nil
	}}
}

// ---------------------------------------------------------------------------
// The full factorial design of §3.1 (12 cells at a fixed processor count).

// FactorialRow is one cell of the 3×2×2 design.
type FactorialRow struct {
	Network    string
	Middleware string
	CPUs       int
	P          int
	Classic    float64
	PME        float64
	Total      float64
}

// Factorial runs every factor combination at the largest configured
// processor count.
func (s *Suite) Factorial() ([]FactorialRow, error) { return RunPlan(s, s.FactorialPlan()) }

// FactorialPlan is the factorial table as a plan.
func (s *Suite) FactorialPlan() Plan[[]FactorialRow] {
	p := s.Cfg.Procs[len(s.Cfg.Procs)-1]
	var cells []CellKey
	for _, net := range netmodel.All() {
		for _, mw := range []pmd.MiddlewareKind{pmd.MiddlewareMPI, pmd.MiddlewareCMPI} {
			for _, cpus := range []int{1, 2} {
				if p%cpus != 0 {
					continue
				}
				cells = append(cells, s.cell(net, p, cpus, mw, s.Cfg.Decomp))
			}
		}
	}
	return Plan[[]FactorialRow]{Cells: cells, Fold: func(results []*pmd.Result) ([]FactorialRow, error) {
		var out []FactorialRow
		for i, res := range results {
			c, pm := res.PhaseTotals()
			out = append(out, FactorialRow{
				Network: cells[i].Cluster.Net.Name, Middleware: cells[i].Middleware.String(),
				CPUs: cells[i].Cluster.CPUsPerNode, P: res.P,
				Classic: c.Wall, PME: pm.Wall, Total: c.Wall + pm.Wall,
			})
		}
		return out, nil
	}}
}
