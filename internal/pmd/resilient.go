package pmd

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/md"
	"repro/internal/mpi"
	"repro/internal/recover"
	"repro/internal/vec"
)

// RecoveryKind selects how RunResilient repairs an injected rank crash.
type RecoveryKind int

const (
	// RecoveryGlobal is the classic checkpoint-restart: the crash drops
	// the whole node, every survivor rewinds to the newest globally
	// consistent checkpoint and the remaining steps re-run on a smaller
	// cluster. Lost work scales with rank count × checkpoint cadence.
	RecoveryGlobal RecoveryKind = iota
	// RecoveryLocal repairs only the crashed domain: a respawned rank
	// restores it from its buddy's micro-checkpoint (taken at every
	// neighbour-list rebuild epoch) and replays forward on re-sent halo
	// messages while the healthy ranks park at their next collective.
	// Rank numbering and cluster size never change, so the recovered
	// trajectory stays bitwise-identical to the fault-free run. Requires
	// the spatial domain decomposition.
	RecoveryLocal
)

func (k RecoveryKind) String() string {
	if k == RecoveryLocal {
		return "local"
	}
	return "global"
}

// ParseRecovery parses a -recovery flag value. The empty string selects
// the classic global rewind.
func ParseRecovery(s string) (RecoveryKind, error) {
	switch s {
	case "", "global":
		return RecoveryGlobal, nil
	case "local":
		return RecoveryLocal, nil
	}
	return 0, fmt.Errorf("pmd: unknown recovery strategy %q (want global or local)", s)
}

// ValidateRecovery rejects a recovery strategy the decomposition cannot
// carry out, with a *ConfigError.
func ValidateRecovery(rk RecoveryKind, dk DecompKind) error {
	if rk == RecoveryLocal && dk != DecompDomain {
		return &ConfigError{"Recovery", "localized recovery repairs spatial domains; it needs Decomp == DecompDomain"}
	}
	return nil
}

// ResilientConfig configures a fault-tolerant parallel run: a base Config
// plus a fault scenario and the checkpoint-restart policy.
type ResilientConfig struct {
	Config

	// Scenario is the fault script; nil runs healthy (RunResilient then
	// degenerates to Run plus accounting plumbing).
	Scenario *fault.Scenario

	// CheckpointEvery takes a snapshot every k completed steps; 0 means
	// the default of 1, negative values are a *ConfigError. Larger values
	// lose more work per crash.
	CheckpointEvery int

	// RestartCost is the virtual time charged per recovery (failure
	// detection, job relaunch, checkpoint distribution).
	RestartCost float64

	// MaxRestarts bounds crash-recovery attempts; 0 means one per crash
	// spec in the scenario.
	MaxRestarts int

	// CheckpointDir, when non-empty, persists checkpoints durably: a ring
	// of the last KeepCheckpoints checksummed checkpoint files plus a
	// per-step progress journal (see internal/md durable format). If the
	// directory already holds a valid checkpoint the run RESUMES from the
	// newest one that validates, booking the killed process's
	// post-checkpoint work as Lost; corrupt newer files are skipped.
	CheckpointDir string

	// KeepCheckpoints is the on-disk ring depth; 0 means md.DefaultKeep,
	// negative values are a *ConfigError.
	KeepCheckpoints int

	// HaltAfterStep > 0 simulates a kill -9 for tests and examples: the
	// run stops right after that global step completes (persistence is
	// current up to it, nothing later reaches disk) and RunResilient
	// returns the partial result with ErrHalted. Requires CheckpointDir.
	HaltAfterStep int

	// Preempt, when non-nil, is polled once per globally completed step
	// on the scheduler thread (it must not block). The first time it
	// returns true the run latches the NEXT step boundary as the
	// preemption point: every rank checkpoints there, the checkpoint is
	// persisted to CheckpointDir, and RunResilient returns the completed
	// prefix with ErrPreempted. A later invocation with the same
	// CheckpointDir resumes from that checkpoint with zero lost work —
	// this is the graceful-preemption hook the serve layer uses to yield
	// a long run to waiting tenants. Requires CheckpointDir.
	Preempt func() bool

	// Recovery selects the crash-repair strategy. RecoveryLocal requires
	// Decomp == DecompDomain (the repair unit is a spatial domain).
	Recovery RecoveryKind

	// TuneCheckpoint enables the failure-rate-aware cadence tuner: after
	// the first observed crash the durable-checkpoint interval is re-set
	// from the online MTTF estimate via the Young/Daly formula
	// (CheckpointEvery remains the zero-failure fallback). Requires
	// CheckpointCost > 0 — the formula needs the checkpoint's price.
	TuneCheckpoint bool

	// CheckpointCost is the virtual seconds one durable checkpoint costs,
	// the C in the Young/Daly interval √(2·C·MTTF). Negative values are a
	// *ConfigError.
	CheckpointCost float64
}

// ConfigError reports an invalid ResilientConfig field.
type ConfigError struct {
	Field string
	Msg   string
}

func (e *ConfigError) Error() string { return fmt.Sprintf("pmd: invalid %s: %s", e.Field, e.Msg) }

// ErrHalted marks a run stopped at the configured HaltAfterStep kill
// point. The result returned alongside it holds the completed prefix; a
// follow-up RunResilient with the same CheckpointDir resumes from disk.
var ErrHalted = errors.New("pmd: run halted at the simulated kill point")

// ErrPreempted marks a run stopped at a Preempt-requested checkpoint
// boundary. Unlike ErrHalted (a simulated crash that loses the work past
// the last periodic checkpoint), a preempted run checkpoints the exact
// boundary it stops at: resuming with the same CheckpointDir loses
// nothing. The result alongside holds the completed prefix.
var ErrPreempted = errors.New("pmd: run preempted at a checkpoint boundary")

// RecoveryEvent records one crash-and-rewind cycle.
type RecoveryEvent struct {
	CrashedRank int     // rank id (pre-restart numbering) that crashed
	DetectedAt  float64 // virtual time into the failed attempt when it died
	RewindStep  int     // global step index execution resumed from
	Lost        float64 // virtual seconds of work discarded across ranks
	Checkpoint  *md.Checkpoint
}

// ResumeInfo describes a restart from a durable on-disk checkpoint.
type ResumeInfo struct {
	Step               int     // global step count the run resumed from
	SkippedCheckpoints int     // corrupt newer checkpoints passed over
	LostOnDisk         float64 // killed process's work past the checkpoint (virtual s)
}

// ResilientResult is the outcome of a fault-tolerant run.
type ResilientResult struct {
	Final      *Result           // the completing attempt
	Energies   []md.EnergyReport // merged across attempts, one per MD step
	Wall       float64           // total virtual time including failed attempts and restarts
	Ranks      int               // surviving rank count
	Acct       []mpi.Accounting  // per surviving rank, merged across attempts
	Recoveries []RecoveryEvent

	// GuardTrips are the numeric-guard events of the whole run (recovered
	// trips that were healed by the exact-kernel fallback included).
	GuardTrips []guard.Event

	// Resumed is set when the run restarted from an on-disk checkpoint.
	Resumed *ResumeInfo

	// Breakdown splits the Lost bucket by mechanism: global-rewind
	// discards, localized replay, and healthy-rank park time.
	Breakdown recover.LostBreakdown

	// Local records the localized repairs (RecoveryLocal runs only); each
	// entry also has a matching RecoveryEvent in Recoveries.
	Local []recover.Event

	// CheckpointInterval is the durable cadence in effect when the run
	// completed; IntervalTuned marks it as Young/Daly-derived rather than
	// the configured fallback.
	CheckpointInterval int
	IntervalTuned      bool
}

// LostTotal sums the Lost bucket over ranks.
func (r *ResilientResult) LostTotal() float64 {
	var s float64
	for _, a := range r.Acct {
		s += a.Lost
	}
	return s
}

// ckptEntry is one rank's recorded state at a checkpoint step.
type ckptEntry struct {
	step   int
	acct   mpi.Accounting
	vel    []vec.V // owned atom block
	pos    []vec.V // rank 0 only: full replica
	frc    []vec.V // rank 0 only: combined forces
	origin []vec.V // rank 0 only: Verlet-list origin (replicated on all ranks)
}

// recorder collects per-rank checkpoint entries during an attempt and,
// when a durable ring is attached, persists each globally completed
// checkpoint (plus a per-step progress journal) to disk. The sim engine
// runs onStep hooks strictly one rank at a time on the scheduler thread,
// so plain field writes are safe. Full in-memory history is kept because
// ranks can be one checkpoint apart when a crash interrupts a collective:
// the rewind uses the newest step every rank (including the crashed one)
// has recorded.
type recorder struct {
	every int
	p     int
	hist  [][]ckptEntry

	// Durable persistence; ring == nil keeps everything in memory only.
	ring       *md.CheckpointRing
	atomOff    []int
	timestepFS float64
	baseStep   int              // globally completed steps before this attempt
	baseWall   float64          // scenario clock at attempt start
	carried    []mpi.Accounting // global cumulative accounting per rank before this attempt
	consumed   []int            // crash spec indices already recovered
	haltAfter  int              // global step to stop at (simulated kill); 0 = never
	halted     bool
	preempt    func() bool // polled at globally consistent step boundaries
	preemptAt  int         // global step every rank stops after; 0 = none latched
	preempted  bool
	nowMax     float64
	acct       []mpi.Accounting // current attempt accounting, refreshed every onStep
	seen       map[int]int      // local step -> ranks that completed it
	persistErr error

	// Localized-recovery bookkeeping (RecoveryLocal only). With local set
	// the recorder keeps a full entry for EVERY completed step — the
	// cluster resumes from the last globally completed step instead of a
	// cadence checkpoint — and rank 0 mirrors the domain grid's buddy
	// micro-checkpoints and halo message log into micro.
	local      bool
	micro      *recover.Log
	nbrs       [][]int // domain halo neighbours, from the grid geometry
	epochSteps []int   // local steps that began a rebuild epoch, ascending
	lastGen    int     // neighbour-list generation at the previous step
}

func (rec *recorder) onStep(w *worker, step int) {
	me := w.me()
	global := rec.baseStep + step + 1
	// A preemption boundary forces a checkpoint regardless of cadence:
	// preemptAt was latched before any rank started this step (see below),
	// so every rank agrees on the forced entry.
	ckptStep := (step+1)%rec.every == 0 || (rec.preemptAt > 0 && global == rec.preemptAt)
	// Localized recovery keeps an entry for every completed step: the
	// in-memory history is what lets the healthy ranks resume from the
	// newest globally completed step rather than a cadence checkpoint.
	// ckptStep still marks the (sparser) durable cadence below.
	if ckptStep || rec.local {
		lo, hi := w.myAtoms()
		e := ckptEntry{
			step: step,
			acct: w.r.Acct(),
			vel:  append([]vec.V(nil), w.vel[lo:hi]...),
		}
		if me == 0 {
			e.pos = append([]vec.V(nil), w.pos...)
			e.frc = append([]vec.V(nil), w.frcTotal...)
			if w.listGen >= 0 {
				e.origin = append([]vec.V(nil), w.listOrigin...)
			}
		}
		rec.hist[me] = append(rec.hist[me], e)
	}
	if rec.local && me == 0 {
		if dd, ok := w.d.(*domainDecomp); ok {
			// Rank 0's onStep sees the post-step canonical state shared by
			// the whole grid: owned-atom counts per domain and the list
			// generation, which bumps exactly at rebuild (migration) epochs.
			owned := dd.prev.epoch.nOwn
			if rec.micro == nil {
				g := dd.geo
				rec.micro = recover.NewLog(rec.p, g.dx, g.dy, g.dz)
				rec.micro.BeginEpoch(-1, owned)
				rec.nbrs = g.nbrs
				rec.lastGen = 0
			}
			if w.listGen > rec.lastGen {
				rec.micro.BeginEpoch(step, owned)
				rec.epochSteps = append(rec.epochSteps, step)
				rec.lastGen = w.listGen
			}
			rec.micro.LogStep(step, owned)
		}
	}
	// The halt step itself still persists: every rank completes it (each
	// sets only its own stop flag), so its checkpoint must reach disk
	// before the simulated kill — that is the state the restart resumes.
	if rec.ring != nil && (rec.haltAfter == 0 || global <= rec.haltAfter) {
		rec.acct[me] = w.r.Acct()
		if now := w.r.Now(); now > rec.nowMax {
			rec.nowMax = now
		}
		rec.seen[step]++
		if rec.seen[step] == rec.p {
			// Collective ordering guarantees every rank finished this step
			// before any rank reaches the next one, so the state gathered
			// across ranks is globally consistent here.
			delete(rec.seen, step)
			rec.persist(step, ckptStep)
			if rec.preempt != nil && rec.preemptAt == 0 && rec.preempt() {
				// Latch the stop point one boundary ahead: the other ranks
				// already passed their stop check for this step, so the next
				// boundary is the earliest one all ranks still observe. No
				// rank has started the next step yet (same ordering as the
				// persist above), so they all see the latched value.
				rec.preemptAt = global + 1
			}
		}
	}
	if rec.haltAfter > 0 && global >= rec.haltAfter {
		rec.halted = true
		w.stop = true
	}
	if rec.preemptAt > 0 && global >= rec.preemptAt {
		rec.preempted = true
		w.stop = true
	}
}

// persist writes the progress journal for the just-completed step and,
// on checkpoint steps, the durable checkpoint itself. Persistence errors
// are remembered (first one wins) and surfaced after the attempt.
func (rec *recorder) persist(localStep int, ckptStep bool) {
	if rec.persistErr != nil {
		return
	}
	global := rec.baseStep + localStep + 1
	wall := rec.baseWall + rec.nowMax
	quads := make([][4]float64, rec.p)
	for i := 0; i < rec.p; i++ {
		a := rec.carried[i]
		a.Add(rec.acct[i])
		quads[i] = [4]float64{a.Comp, a.Comm, a.Sync, a.Lost}
	}
	if ckptStep {
		idx := len(rec.hist[0]) - 1
		cp := rec.assemble(idx, rec.atomOff, rec.timestepFS)
		meta := md.DurableMeta{Step: global, Wall: wall, RankAcct: quads}
		if err := rec.ring.Save(cp, meta); err != nil {
			rec.persistErr = err
			return
		}
	}
	prog := md.Progress{Step: global, Wall: wall, RankAcct: quads, ConsumedCrashes: rec.consumed}
	if err := rec.ring.MarkProgress(prog); err != nil {
		rec.persistErr = err
	}
}

// rewindIndex returns the index into each rank's history of the newest
// checkpoint all ranks share, or -1 when some rank has none.
func (rec *recorder) rewindIndex() int {
	idx := -1
	for i, h := range rec.hist {
		n := len(h) - 1
		if i == 0 || n < idx {
			idx = n
		}
	}
	return idx
}

// assemble builds the global checkpoint at history index idx: positions
// and forces from rank 0's replica (consistent after the step's gather and
// reduction), velocities from the per-rank owned blocks (velocities are
// never gathered during a run, so no single replica holds them all).
func (rec *recorder) assemble(idx int, atomOff []int, timestepFS float64) *md.Checkpoint {
	root := rec.hist[0][idx]
	n := len(root.pos)
	cp := &md.Checkpoint{
		N:          n,
		TimestepFS: timestepFS,
		Pos:        append([]vec.V(nil), root.pos...),
		Vel:        make([]vec.V, n),
		Frc:        append([]vec.V(nil), root.frc...),
	}
	for rk := range rec.hist {
		copy(cp.Vel[atomOff[rk]:atomOff[rk+1]], rec.hist[rk][idx].vel)
	}
	if root.origin != nil {
		cp.ListOrigin = append([]vec.V(nil), root.origin...)
	}
	return cp
}

// validate checks the resilience knobs and applies defaults in place.
func (rcfg *ResilientConfig) validate() error {
	if err := ValidateRecovery(rcfg.Recovery, rcfg.Decomp); err != nil {
		return err
	}
	switch {
	case rcfg.CheckpointEvery < 0:
		return &ConfigError{"CheckpointEvery",
			fmt.Sprintf("must be >= 0 (0 means the default of 1), got %d", rcfg.CheckpointEvery)}
	case rcfg.KeepCheckpoints < 0:
		return &ConfigError{"KeepCheckpoints",
			fmt.Sprintf("must be >= 0 (0 means the default of %d), got %d", md.DefaultKeep, rcfg.KeepCheckpoints)}
	case rcfg.RestartCost < 0:
		return &ConfigError{"RestartCost", fmt.Sprintf("must be >= 0, got %g", rcfg.RestartCost)}
	case rcfg.MaxRestarts < 0:
		return &ConfigError{"MaxRestarts", fmt.Sprintf("must be >= 0, got %d", rcfg.MaxRestarts)}
	case rcfg.HaltAfterStep < 0:
		return &ConfigError{"HaltAfterStep", fmt.Sprintf("must be >= 0, got %d", rcfg.HaltAfterStep)}
	case rcfg.HaltAfterStep > 0 && rcfg.CheckpointDir == "":
		return &ConfigError{"HaltAfterStep", "simulated kill needs CheckpointDir to resume from"}
	case rcfg.Preempt != nil && rcfg.CheckpointDir == "":
		return &ConfigError{"Preempt", "graceful preemption needs CheckpointDir to park the run in"}
	case rcfg.CheckpointCost < 0:
		return &ConfigError{"CheckpointCost", fmt.Sprintf("must be >= 0, got %g", rcfg.CheckpointCost)}
	case rcfg.TuneCheckpoint && rcfg.CheckpointCost <= 0:
		return &ConfigError{"TuneCheckpoint", "the Young/Daly interval needs CheckpointCost > 0"}
	}
	if rcfg.CheckpointEvery == 0 {
		rcfg.CheckpointEvery = 1
	}
	return nil
}

func quadToAcct(q [4]float64) mpi.Accounting {
	return mpi.Accounting{Comp: q[0], Comm: q[1], Sync: q[2], Lost: q[3]}
}

// RunResilient executes the parallel MD under fault injection with
// checkpoint-restart recovery. On an injected rank crash it drops the
// crashed rank's whole node, rewinds to the newest globally consistent
// checkpoint and re-runs the remaining steps on the survivors; the
// discarded virtual time lands in the Lost accounting bucket. On a
// numeric guard trip with guard.PolicyFallback it rewinds the same way
// and continues on exact kernels. With CheckpointDir set, checkpoints
// also persist to disk and a later invocation resumes a killed run from
// the newest valid file. Other errors (including watchdog timeouts with
// no crash behind them) are returned as-is.
func RunResilient(clusterCfg cluster.Config, cost cluster.CostModel, rcfg ResilientConfig) (*ResilientResult, error) {
	if err := clusterCfg.Validate(); err != nil {
		return nil, err
	}
	if err := rcfg.validate(); err != nil {
		return nil, err
	}
	var crashSpecs int
	if rcfg.Scenario != nil {
		crashSpecs = len(rcfg.Scenario.CrashSpecs())
	}
	maxRestarts := rcfg.MaxRestarts
	if maxRestarts == 0 {
		maxRestarts = crashSpecs
	}
	wd := rcfg.Watchdog
	if !wd.Enabled() && crashSpecs > 0 {
		// Crash detection relies on bounded waits: without a watchdog the
		// survivors would park forever and the run would end in a sim
		// deadlock instead of a recoverable typed error.
		wd = mpi.DefaultWatchdog()
	}

	// Resilience metrics (nil-gated: a run without a registry pays
	// nothing). Counters accumulate across attempts of this invocation.
	reg := rcfg.Obs
	obsCount := func(name, help string, v float64) {
		if reg != nil {
			reg.Counter(name, help).Add(v)
		}
	}

	out := &ResilientResult{}
	curCfg := clusterCfg
	totalSteps := rcfg.Steps
	stepsDone := 0
	offset := 0.0
	init := rcfg.Init
	exact := rcfg.MD.FF.ExactKernels
	var consumed []int
	var carried []mpi.Accounting
	restarts := 0

	// every is the durable cadence actually in effect; the Young/Daly
	// tuner re-derives it after each observed crash, otherwise it stays at
	// the configured fallback.
	every := rcfg.CheckpointEvery
	var tuner *recover.Tuner
	if rcfg.TuneCheckpoint {
		tuner = &recover.Tuner{Fixed: rcfg.CheckpointEvery, CkptCost: rcfg.CheckpointCost, MaxSteps: totalSteps}
	}
	obsGauge := func(name, help string, v float64) {
		if reg != nil {
			reg.Gauge(name, help).Set(v)
		}
	}
	retune := func() {
		if tuner == nil {
			return
		}
		tuner.Fail(out.Wall)
		tuner.Progress(out.Wall, stepsDone)
		every, _ = tuner.Interval()
		if mttf, ok := tuner.Estimate(); ok {
			obsGauge("repro_mttf_seconds", "online mean-time-to-failure estimate (virtual s)", mttf)
		}
		obsGauge("repro_checkpoint_interval_steps", "durable checkpoint cadence in effect", float64(every))
	}

	var ring *md.CheckpointRing
	if rcfg.CheckpointDir != "" {
		ring = &md.CheckpointRing{Dir: rcfg.CheckpointDir, Keep: rcfg.KeepCheckpoints, Obs: reg}
		cp, meta, skipped, err := ring.LoadNewest()
		switch {
		case err == nil:
			// Resume a killed run: the checkpoint fixes the dynamic state
			// and the surviving rank count; the progress journal, when it
			// reaches past the checkpoint, fixes what the killed process
			// had additionally spent — that delta is Lost.
			if len(meta.RankAcct)%clusterCfg.CPUsPerNode != 0 {
				return nil, fmt.Errorf("pmd: checkpoint has %d ranks, not a multiple of %d CPUs/node",
					len(meta.RankAcct), clusterCfg.CPUsPerNode)
			}
			if meta.Step >= totalSteps {
				return nil, fmt.Errorf("pmd: checkpoint already at step %d of a %d-step run", meta.Step, totalSteps)
			}
			curCfg.Nodes = len(meta.RankAcct) / clusterCfg.CPUsPerNode
			stepsDone = meta.Step
			init = cp
			carried = make([]mpi.Accounting, len(meta.RankAcct))
			for i, q := range meta.RankAcct {
				carried[i] = quadToAcct(q)
			}
			resumeWall := meta.Wall
			var lostOnDisk float64
			if prog, perr := ring.ReadProgress(); perr == nil &&
				prog.Step >= meta.Step && len(prog.RankAcct) == len(meta.RankAcct) {
				consumed = prog.ConsumedCrashes
				resumeWall = prog.Wall
				for i, q := range prog.RankAcct {
					if lost := quadToAcct(q).Total() - carried[i].Total(); lost > 0 {
						carried[i].Lost += lost
						lostOnDisk += lost
					}
				}
			}
			out.Wall = resumeWall + rcfg.RestartCost
			offset = out.Wall
			out.Resumed = &ResumeInfo{Step: stepsDone, SkippedCheckpoints: skipped, LostOnDisk: lostOnDisk}
		case errors.Is(err, md.ErrNoCheckpoint):
			// Fresh run; the ring fills as steps complete.
		default:
			return nil, err
		}
	}

	for {
		var inj *fault.Injector
		if rcfg.Scenario != nil {
			var err error
			inj, err = fault.NewInjector(rcfg.Scenario, fault.Options{Offset: offset, ConsumedCrashes: consumed})
			if err != nil {
				return nil, err
			}
		}
		p := curCfg.Nodes * curCfg.CPUsPerNode
		base := carried
		if base == nil {
			base = make([]mpi.Accounting, p)
		}
		rec := &recorder{
			every: every, p: p, hist: make([][]ckptEntry, p),
			ring: ring, atomOff: blockPartition(rcfg.System.N(), p),
			timestepFS: rcfg.MD.TimestepFS,
			baseStep:   stepsDone, baseWall: offset, carried: base,
			consumed: consumed, haltAfter: rcfg.HaltAfterStep,
			preempt: rcfg.Preempt,
			acct:    make([]mpi.Accounting, p), seen: map[int]int{},
			local: rcfg.Recovery == RecoveryLocal,
		}

		attempt := rcfg.Config
		attempt.Steps = totalSteps - stepsDone
		attempt.Init = init
		attempt.Watchdog = wd
		attempt.onStep = rec.onStep
		// Perf samples and OnStep telemetry use global step indices so a
		// resumed attempt overwrites the rewound steps' cells instead of
		// restarting the timeline at zero.
		attempt.perfBase = stepsDone
		if exact {
			attempt.MD.FF.ExactKernels = true
		}
		if inj != nil {
			attempt.Faults = inj
		}

		res, accts, err := runAttempt(curCfg, cost, attempt)
		if rec.persistErr != nil {
			return nil, fmt.Errorf("pmd: durable checkpoint: %w", rec.persistErr)
		}
		if err == nil {
			if carried == nil {
				out.Acct = accts
			} else {
				out.Acct = carried
				for i := range accts {
					out.Acct[i].Add(accts[i])
				}
			}
			out.Final = res
			out.Ranks = p
			out.Energies = append(out.Energies, res.Energies...)
			out.Wall += res.Wall
			out.GuardTrips = append(out.GuardTrips, res.GuardEvents...)
			out.CheckpointInterval = every
			out.IntervalTuned = tuner != nil && tuner.Tuned()
			if rec.halted {
				return out, ErrHalted
			}
			// Preemption at the final boundary is indistinguishable from
			// finishing — only an actually shortened run reports it.
			if rec.preempted && stepsDone+len(res.Energies) < totalSteps {
				obsCount("repro_preemptions_total", "graceful checkpoint preemptions", 1)
				return out, ErrPreempted
			}
			return out, nil
		}

		// The failed attempt ran until the last rank stopped accruing
		// time; for a crash this is a lower bound refined below.
		detected := 0.0
		for _, a := range accts {
			if t := a.Total(); t > detected {
				detected = t
			}
		}

		var te *guard.TripError
		var ce *mpi.CrashError
		switch {
		case errors.As(err, &te):
			if rcfg.Guard.Policy != guard.PolicyFallback || exact {
				return nil, err
			}
			// Degrade to exact kernels: rewind to the newest checkpoint
			// and redo from there on exact math. The exact flag is sticky,
			// so this branch runs at most once.
			exact = true
			ev := te.Ev
			ev.Recovered = true
			out.GuardTrips = append(out.GuardTrips, ev)

			idx := rec.rewindIndex()
			var cp *md.Checkpoint
			keep := 0
			if idx >= 0 {
				cp = rec.assemble(idx, rec.atomOff, rcfg.MD.TimestepFS)
				keep = rec.hist[0][idx].step + 1
			}
			if carried == nil {
				carried = make([]mpi.Accounting, p)
			}
			for i := 0; i < p; i++ {
				var keptAcct mpi.Accounting
				if idx >= 0 {
					keptAcct = rec.hist[i][idx].acct
				}
				carried[i].Add(keptAcct)
				carried[i].Lost += accts[i].Total() - keptAcct.Total()
			}
			if keep > 0 {
				out.Energies = append(out.Energies, res.Energies[:keep]...)
			}
			stepsDone += keep
			if cp != nil {
				init = cp
			}
			out.Wall += detected + rcfg.RestartCost
			offset += detected + rcfg.RestartCost
			obsCount("repro_guard_fallbacks_total", "guard trips healed by the exact-kernel fallback", 1)

		case errors.As(err, &ce):
			restarts++
			if restarts > maxRestarts {
				return nil, fmt.Errorf("pmd: restart budget (%d) exhausted: %w", maxRestarts, ce)
			}
			if ce.At > detected {
				detected = ce.At
			}

			if rcfg.Recovery == RecoveryLocal {
				if p < 2 {
					return nil, fmt.Errorf("pmd: localized recovery needs a buddy rank: %w", ce)
				}
				// Resume point: the newest step EVERY rank completed (the
				// recorder keeps all of them in local mode). Healthy ranks
				// already hold that state — nobody rewinds, the cluster
				// parks at the next collective while the crashed domain is
				// repaired. Rank numbering and cluster size are unchanged,
				// which is what keeps the trajectory bitwise-identical to
				// the fault-free run.
				idx := rec.rewindIndex()
				var cp *md.Checkpoint
				keep := 0
				if idx >= 0 {
					cp = rec.assemble(idx, rec.atomOff, rcfg.MD.TimestepFS)
					keep = rec.hist[0][idx].step + 1
				}
				// Restore epoch: the newest rebuild whose buddy
				// micro-checkpoint the crashed rank is known to have
				// completed — i.e. one at or before the last globally
				// completed step. A rebuild the crash interrupted
				// mid-migration is NOT a valid restore point: its mirror
				// may describe atoms still in flight between domains.
				epoch := -1
				for _, es := range rec.epochSteps {
					if es > idx {
						break
					}
					epoch = es
				}
				c := ce.Rank
				// The respawned rank replays its domain serially from the
				// epoch: re-execution of its own compute with halo inputs
				// re-sent from the neighbours' message logs — no
				// collectives, so no Comm/Sync share in the replay price.
				replayT := 0.0
				if idx >= 0 {
					replayT = rec.hist[c][idx].acct.Comp
					if epoch >= 0 {
						replayT -= rec.hist[c][epoch].acct.Comp
					}
					if replayT < 0 {
						replayT = 0
					}
				}

				if carried == nil {
					carried = make([]mpi.Accounting, p)
				}
				var parked, replayLost float64
				for i := 0; i < p; i++ {
					var keptAcct mpi.Accounting
					if idx >= 0 {
						keptAcct = rec.hist[i][idx].acct
					}
					// Each rank loses its own partial step past the resume
					// point plus the wait for the domain replay. (The park
					// until crash DETECTION is symmetric with the global
					// rewind and stays out of the Lost bucket for both.)
					li := accts[i].Total() - keptAcct.Total() + replayT
					if li < 0 {
						li = 0
					}
					carried[i].Add(keptAcct)
					carried[i].Lost += li
					if i == c {
						replayLost += li
					} else {
						parked += li
					}
				}
				out.Breakdown.Replay += replayLost
				out.Breakdown.Park += parked

				if keep > 0 {
					out.Energies = append(out.Energies, res.Energies[:keep]...)
				}
				ev := recover.Event{
					Rank:        c,
					EpochStep:   stepsDone + epoch + 1,
					ResumeStep:  stepsDone + keep,
					ReplaySteps: idx - epoch,
					Detect:      detected,
					Restore:     rcfg.RestartCost,
					Replay:      replayT,
					Park:        parked,
				}
				if rec.micro != nil {
					ev.Buddy = rec.micro.Buddy(c)
					if mc, ok := rec.micro.Restore(c, idx); ok {
						ev.RestoredBytes = mc.Bytes
					}
					if c < len(rec.nbrs) {
						ev.ResentBytes = rec.micro.Resent(rec.nbrs[c], epoch, idx)
					}
				}
				out.Local = append(out.Local, ev)
				out.Recoveries = append(out.Recoveries, RecoveryEvent{
					CrashedRank: c,
					DetectedAt:  detected,
					RewindStep:  stepsDone + keep,
					Lost:        replayLost + parked,
					Checkpoint:  cp,
				})
				obsCount("repro_recoveries_total", "crash-and-rewind recovery cycles", 1)
				obsCount("repro_recoveries_localized_total", "localized (buddy-restore) crash repairs", 1)
				obsCount("repro_recovery_lost_seconds_total", "virtual seconds discarded by crash rewinds", replayLost+parked)
				if inj != nil {
					if spec, ok := inj.CrashSpecAt(c); ok {
						consumed = append(consumed, spec)
					}
				}

				stepsDone += keep
				if cp != nil {
					init = cp
				}
				stall := detected + rcfg.RestartCost + replayT
				out.Wall += stall
				offset += stall
				retune()
				continue
			}

			crashedNode := ce.Rank / curCfg.CPUsPerNode
			if curCfg.Nodes < 2 {
				return nil, fmt.Errorf("pmd: no surviving nodes after %w", ce)
			}
			if rcfg.Decomp == DecompDomain {
				// A global rewind drops the node and re-tiles the domain
				// grid over the survivors; reject a survivor count the PME
				// pencils cannot tile instead of running a malformed grid.
				// (Localized recovery above never re-tiles — its cluster
				// size is constant.)
				if verr := ValidateDecomp(DecompDomain, (curCfg.Nodes-1)*curCfg.CPUsPerNode, rcfg.MD.PME); verr != nil {
					return nil, fmt.Errorf("pmd: global rewind cannot re-tile the survivors: %w", verr)
				}
			}

			// Rewind point: the newest checkpoint every rank recorded.
			idx := rec.rewindIndex()
			var cp *md.Checkpoint
			keep := 0
			if idx >= 0 {
				cp = rec.assemble(idx, rec.atomOff, rcfg.MD.TimestepFS)
				keep = rec.hist[0][idx].step + 1
			}

			// Merge kept state and book lost time, dropping the crashed
			// node's ranks and renumbering the survivors.
			if carried == nil {
				carried = make([]mpi.Accounting, p)
			}
			survivors := make([]mpi.Accounting, 0, p-curCfg.CPUsPerNode)
			var lost float64
			for i := 0; i < p; i++ {
				var keptAcct mpi.Accounting
				if idx >= 0 {
					keptAcct = rec.hist[i][idx].acct
				}
				li := accts[i].Total() - keptAcct.Total()
				lost += li
				if i/curCfg.CPUsPerNode == crashedNode {
					continue
				}
				a := carried[i]
				a.Add(keptAcct)
				a.Lost += li
				survivors = append(survivors, a)
			}
			carried = survivors
			out.Breakdown.Rewind += lost

			if keep > 0 {
				out.Energies = append(out.Energies, res.Energies[:keep]...)
			}
			out.Recoveries = append(out.Recoveries, RecoveryEvent{
				CrashedRank: ce.Rank,
				DetectedAt:  detected,
				RewindStep:  stepsDone + keep,
				Lost:        lost,
				Checkpoint:  cp,
			})
			obsCount("repro_recoveries_total", "crash-and-rewind recovery cycles", 1)
			obsCount("repro_recovery_lost_seconds_total", "virtual seconds discarded by crash rewinds", lost)
			if inj != nil {
				if spec, ok := inj.CrashSpecAt(ce.Rank); ok {
					consumed = append(consumed, spec)
				}
			}

			stepsDone += keep
			if cp != nil {
				init = cp
			}
			out.Wall += detected + rcfg.RestartCost
			offset += detected + rcfg.RestartCost
			curCfg.Nodes--
			retune()

		default:
			return nil, err
		}
	}
}
