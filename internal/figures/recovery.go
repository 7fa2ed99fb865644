package figures

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/fault"
	"repro/internal/netmodel"
	"repro/internal/pmd"
	"repro/internal/report"
)

// recoveryRestartCost is the virtual seconds one crash repair charges for
// detection, respawn and state distribution, shared by both strategies so
// the figure isolates the lost-work mechanics.
const recoveryRestartCost = 5

// recoveryCheckpointEvery is the global-rewind strategy's durable cadence
// (the localized strategy resumes from the last completed step and only
// uses the cadence for durability, which this in-memory study skips).
const recoveryCheckpointEvery = 2

// RecoveryRow is one (network, strategy, ranks, crashes) cell of the
// lost-work study: a domain-decomposition run under injected rank
// crashes, with the Lost accounting bucket split by mechanism.
type RecoveryRow struct {
	Network  string
	Strategy string // "global-rewind" or "localized"
	P        int
	Crashes  int
	Wall     float64 // total virtual wall including repairs
	Lost     float64 // total virtual seconds lost across ranks
	Rewind   float64 // discarded by global rewinds
	Replay   float64 // crashed-domain redo from its newest completed rebuild epoch
	Park     float64 // healthy ranks waiting at the next collective
	Bitwise  bool    // trajectory bitwise-identical to the fault-free run
	Err      string  // non-empty: the strategy cannot finish this cell
}

// RecoveryVerdict is the per-cell comparison the acceptance criterion
// reads: localized must lose strictly less work than the global rewind.
type RecoveryVerdict struct {
	Network    string
	P          int
	Crashes    int
	GlobalLost float64
	LocalLost  float64
	LocalWins  bool
	Bitwise    bool   // the localized run matched the fault-free trajectory
	GlobalErr  string // global rewind could not finish (e.g. survivors cannot re-tile)
}

// RecoveryResult bundles the sweep and the verdicts.
type RecoveryResult struct {
	Rows     []RecoveryRow
	Verdicts []RecoveryVerdict
}

// recoveryScenario spreads k crashes over the fault-free run's stepped
// region, each killing a different deterministic rank. Crash times are
// derived from the healthy run's own step boundaries and land mid-step,
// past the first completed step — step 0 is dominated by one-time setup
// (initial list build), and a crash there degenerates every strategy to
// restart-from-scratch, which is not what the study measures.
func recoveryScenario(healthy *pmd.Result, p, k int) (*fault.Scenario, error) {
	t := healthy.Timings[0]
	steps := len(t)
	bounds := make([]float64, steps+1) // bounds[s] = wall when step s-1 completed
	for s := 0; s < steps; s++ {
		bounds[s+1] = bounds[s] + t[s].Classic.Wall + t[s].PME.Wall
	}
	// Per-step timings exclude one-time setup (topology distribution, the
	// initial list build); anchor the boundaries so the last one lands on
	// the run's actual wall clock.
	setup := healthy.Wall - bounds[steps]
	for s := range bounds {
		bounds[s] += setup
	}
	specs := make([]string, k)
	for i := 0; i < k; i++ {
		s := 1 + i*(steps-1)/k // crash inside step s ∈ [1, steps-1]
		at := (bounds[s] + bounds[s+1]) / 2
		specs[i] = fmt.Sprintf("crash@%g,rank=%d", at, (i*7+1)%p)
	}
	return fault.ParseSpec(strings.Join(specs, ";"))
}

// recoveryRows are the fault-free runs of the lost-work study: the domain
// rank counts on all three networks (a rank count the domain decomposition
// cannot tile is their *pmd.DecompError).
func (s *Suite) recoveryRows() []Row {
	var rows []Row
	for _, net := range netmodel.All() {
		for _, p := range s.Cfg.RecoveryProcs {
			rows = append(rows, s.row(net, p, 1, pmd.MiddlewareMPI, pmd.DecompDomain))
		}
	}
	return rows
}

// recoveryStudy runs the lost-work study over its fault-free rows: crash
// counts × recovery strategy, each crash scenario derived from its healthy
// run and executed as a resilient run, one at a time. Every faulted run is
// scored against the fault-free trajectory (bitwise) and its Lost bucket
// is split into rewind/replay/park, showing where each strategy's time
// goes as the cluster grows. The study's rows are its own, not Rows: they
// come from pmd.RunResilient, not from cells.
func (s *Suite) recoveryStudy(healthyRows []Row) (*RecoveryResult, error) {
	out := &RecoveryResult{}
	for _, hr := range healthyRows {
		healthy, net, p := hr.Res, hr.Cell.Cluster.Net, hr.P()
		for _, k := range s.Cfg.RecoveryCrashes {
			sc, err := recoveryScenario(healthy, p, k)
			if err != nil {
				return nil, err
			}
			verdict := RecoveryVerdict{Network: net.Name, P: p, Crashes: k}
			for _, strat := range []pmd.RecoveryKind{pmd.RecoveryGlobal, pmd.RecoveryLocal} {
				name := "global-rewind"
				if strat == pmd.RecoveryLocal {
					name = "localized"
				}
				row := RecoveryRow{Network: net.Name, Strategy: name, P: p, Crashes: k}
				res, err := pmd.RunResilient(hr.Cell.Cluster, s.Cfg.Cost, pmd.ResilientConfig{
					Config: pmd.Config{
						System: s.sys, MD: s.Cfg.MD, Steps: s.Cfg.Steps,
						Middleware: pmd.MiddlewareMPI, Decomp: pmd.DecompDomain,
						HostWorkers: s.workers(),
					},
					Scenario:        sc,
					CheckpointEvery: recoveryCheckpointEvery,
					RestartCost:     recoveryRestartCost,
					Recovery:        strat,
				})
				if err != nil {
					// A strategy that cannot finish the cell (the global
					// rewind's survivors may no longer tile the PME
					// pencil grid) is itself a result.
					row.Err = err.Error()
					out.Rows = append(out.Rows, row)
					if strat == pmd.RecoveryGlobal {
						verdict.GlobalErr = err.Error()
						verdict.LocalWins = true
					}
					continue
				}
				row.Wall = res.Wall
				row.Lost = res.LostTotal()
				row.Rewind = res.Breakdown.Rewind
				row.Replay = res.Breakdown.Replay
				row.Park = res.Breakdown.Park
				row.Bitwise = sameRun(res, healthy)
				out.Rows = append(out.Rows, row)
				if strat == pmd.RecoveryGlobal {
					verdict.GlobalLost = row.Lost
				} else {
					verdict.LocalLost = row.Lost
					verdict.Bitwise = row.Bitwise
					if verdict.GlobalErr == "" {
						verdict.LocalWins = row.Lost < verdict.GlobalLost
					}
				}
			}
			out.Verdicts = append(out.Verdicts, verdict)
		}
	}
	return out, nil
}

// sameRun reports whether a faulted resilient run reproduced the
// fault-free trajectory bit for bit: every per-step energy report and
// every final coordinate.
func sameRun(res *pmd.ResilientResult, healthy *pmd.Result) bool {
	if len(res.Energies) != len(healthy.Energies) || res.Final == nil {
		return false
	}
	for i := range res.Energies {
		if res.Energies[i] != healthy.Energies[i] {
			return false
		}
	}
	if len(res.Final.FinalPos) != len(healthy.FinalPos) {
		return false
	}
	for i := range healthy.FinalPos {
		if res.Final.FinalPos[i] != healthy.FinalPos[i] {
			return false
		}
	}
	return true
}

// renderRecovery runs the lost-work study and writes it.
func renderRecovery(s *Suite, w io.Writer, rows []Row, csv bool) error {
	c, err := s.recoveryStudy(rows)
	if err != nil {
		return err
	}
	if csv {
		return csvRecovery(w, c)
	}
	return textRecovery(w, c)
}

// textRecovery writes the sweep table and the per-cell verdicts.
func textRecovery(w io.Writer, c *RecoveryResult) error {
	fmt.Fprintln(w, "Surviving crashes at scale — global checkpoint rewind vs localized epoch replay")
	var cells [][]string
	for _, r := range c.Rows {
		if r.Err != "" {
			cells = append(cells, []string{
				r.Network, r.Strategy, fmt.Sprintf("%d", r.P), fmt.Sprintf("%d", r.Crashes),
				"—", "—", "—", "—", "—", "cannot finish",
			})
			continue
		}
		bit := "no"
		if r.Bitwise {
			bit = "yes"
		}
		cells = append(cells, []string{
			r.Network, r.Strategy, fmt.Sprintf("%d", r.P), fmt.Sprintf("%d", r.Crashes),
			report.Seconds(r.Lost), report.Seconds(r.Rewind), report.Seconds(r.Replay),
			report.Seconds(r.Park), bit, "",
		})
	}
	if err := report.Table(w, []string{
		"network", "strategy", "procs", "crashes", "lost", "rewind", "replay", "park", "bitwise", "",
	}, cells); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nVerdict (localized lost work vs global rewind, same crashes):")
	cells = cells[:0]
	for _, v := range c.Verdicts {
		global := report.Seconds(v.GlobalLost)
		if v.GlobalErr != "" {
			global = "cannot finish"
		}
		wins := "no"
		if v.LocalWins {
			wins = "yes"
		}
		bit := "no"
		if v.Bitwise {
			bit = "yes"
		}
		cells = append(cells, []string{
			v.Network, fmt.Sprintf("%d", v.P), fmt.Sprintf("%d", v.Crashes),
			global, report.Seconds(v.LocalLost), wins, bit,
		})
	}
	if err := report.Table(w, []string{
		"network", "procs", "crashes", "global lost", "localized lost", "localized wins", "bitwise",
	}, cells); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nA global rewind discards every rank's work back to the last full-cluster")
	fmt.Fprintln(w, "checkpoint and re-tiles the domain grid over one fewer node — lost work grows")
	fmt.Fprintln(w, "with cluster size exactly when crashes get more frequent. Every rank count")
	fmt.Fprintln(w, "reads the workload's one trajectory, so a rewind that finishes on the smaller")
	fmt.Fprintln(w, "grid keeps its bits too. The localized repair respawns the crashed rank,")
	fmt.Fprintln(w, "restores its domain at the newest completed rebuild epoch and replays it")
	fmt.Fprintln(w, "while the healthy ranks park at the next collective: the cluster keeps its")
	fmt.Fprintln(w, "size, and the lost work stays bounded by one domain's replay plus the park.")
	fmt.Fprintln(w, "Halo re-send bytes are not counted.")
	return nil
}

// csvRecovery writes the sweep as CSV (infeasible cells carry the error).
func csvRecovery(w io.Writer, c *RecoveryResult) error {
	var cells [][]string
	for _, r := range c.Rows {
		cells = append(cells, []string{
			csvName(r.Network), r.Strategy, fmt.Sprintf("%d", r.P), fmt.Sprintf("%d", r.Crashes),
			f(r.Wall), f(r.Lost), f(r.Rewind), f(r.Replay), f(r.Park),
			fmt.Sprintf("%v", r.Bitwise), csvName(r.Err),
		})
	}
	return report.CSV(w, []string{
		"network", "strategy", "procs", "crashes", "wall_s", "lost_s",
		"rewind_s", "replay_s", "park_s", "bitwise", "error",
	}, cells)
}
