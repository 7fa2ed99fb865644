package pmd

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/md"
	"repro/internal/mpi"
	"repro/internal/recover"
	"repro/internal/vec"
)

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
	finalBase  int               // global step Final's first row is
	Energies   []md.EnergyReport // merged across attempts, one per MD step
	Wall       float64           // total virtual time including failed attempts and restarts
	Ranks      int               // surviving rank count
	Acct       []mpi.Accounting  // per surviving rank, merged across attempts
	Recoveries []RecoveryEvent

	// Resumed is set when the run restarted from an on-disk checkpoint.
	Resumed *ResumeInfo

	// Breakdown splits what THIS invocation's crash recoveries booked as
	// Lost by mechanism: global-rewind discards, localized replay, and
	// healthy-rank park time. It is not the whole Lost bucket of Acct:
	//
	//	LostTotal() + Lost of the ranks global rewinds dropped
	//	  = Breakdown.Total() + Resumed.LostOnDisk
	//	  + Lost the resumed checkpoint already carried
	//
	// (up to float regrouping). The two terms no exported field reports
	// are kept below for the test of that identity.
	Breakdown recover.LostBreakdown

	lostDropped, lostInherited float64

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

func quadToAcct(q [4]float64) mpi.Accounting {
	return mpi.Accounting{Comp: q[0], Comm: q[1], Sync: q[2], Lost: q[3]}
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

// recorder is one attempt: it collects per-rank checkpoint entries while
// the attempt runs and, when the driver has a durable ring, persists each
// globally completed checkpoint (plus a per-step progress journal) to
// disk; afterwards it holds how the attempt ended. What an attempt starts
// from (steps done, clocks, carried accounting, cadence) it reads from the
// driver, which changes only between attempts. The sim engine runs onStep
// hooks strictly one rank at a time on the scheduler thread, so plain
// field writes are safe. Full in-memory history is kept because ranks can
// be one checkpoint apart when a crash interrupts a collective: the rewind
// uses the newest step every rank (including the crashed one) has
// recorded.
type recorder struct {
	d       *driver
	p       int
	hist    [][]ckptEntry
	atomOff []int

	halted     bool
	preemptAt  int // global step every rank stops after; 0 = none latched
	preempted  bool
	nowMax     float64
	acct       []mpi.Accounting // current attempt accounting, refreshed every onStep
	seen       map[int]int      // local step -> ranks that completed it
	persistErr error

	// Localized-recovery bookkeeping (RecoveryLocal only). In local mode
	// the recorder keeps a full entry for EVERY completed step — the
	// cluster resumes from the last globally completed step instead of a
	// cadence checkpoint — and rank 0 notes the steps that began a rebuild
	// epoch, the restore points replayPrice chooses from.
	local      bool
	epochSteps []int // local steps that began a rebuild epoch, ascending
	lastGen    int   // neighbour-list generation at the previous step

	// How the attempt ended.
	inj   *fault.Injector
	res   *Result          // partial when the attempt failed
	accts []mpi.Accounting // this attempt only
	err   error            // nil means it completed
}

func (rec *recorder) onStep(w *worker, step int) {
	me := w.me()
	haltAfter := rec.d.rcfg.HaltAfterStep
	global := rec.d.stepsDone + step + 1
	// A preemption boundary forces a checkpoint regardless of cadence:
	// preemptAt was latched before any rank started this step (see below),
	// so every rank agrees on the forced entry.
	ckptStep := (step+1)%rec.d.every == 0 || (rec.preemptAt > 0 && global == rec.preemptAt)
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
	// The list generation is in lockstep on every rank and bumps exactly at
	// rebuild (migration) epochs, so rank 0's view stands for the grid.
	if rec.local && me == 0 && w.listGen > rec.lastGen {
		rec.epochSteps = append(rec.epochSteps, step)
		rec.lastGen = w.listGen
	}
	// The halt step itself still persists: every rank completes it (each
	// sets only its own stop flag), so its checkpoint must reach disk
	// before the simulated kill — that is the state the restart resumes.
	if rec.d.ring != nil && (haltAfter == 0 || global <= haltAfter) {
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
			rec.persist(global, ckptStep)
			if preempt := rec.d.rcfg.Preempt; preempt != nil && rec.preemptAt == 0 && preempt() {
				// Latch the stop point one boundary ahead: the other ranks
				// already passed their stop check for this step, so the next
				// boundary is the earliest one all ranks still observe. No
				// rank has started the next step yet (same ordering as the
				// persist above), so they all see the latched value.
				rec.preemptAt = global + 1
			}
		}
	}
	if haltAfter > 0 && global >= haltAfter {
		rec.halted = true
		w.stop = true
	}
	if rec.preemptAt > 0 && global >= rec.preemptAt {
		rec.preempted = true
		w.stop = true
	}
}

// persist writes the progress journal for the just-completed global step
// and, on checkpoint steps, the durable checkpoint itself. Persistence
// errors are remembered (first one wins) and surfaced after the attempt.
func (rec *recorder) persist(global int, ckptStep bool) {
	if rec.persistErr != nil {
		return
	}
	d := rec.d
	wall := d.offset + rec.nowMax
	quads := make([][4]float64, rec.p)
	for i := range quads {
		var a mpi.Accounting
		if d.carried != nil {
			a = d.carried[i]
		}
		a.Add(rec.acct[i])
		quads[i] = [4]float64{a.Comp, a.Comm, a.Sync, a.Lost}
	}
	if ckptStep {
		cp := rec.assemble(len(rec.hist[0]) - 1)
		meta := md.DurableMeta{Step: global, Wall: wall, RankAcct: quads}
		if err := d.ring.Save(cp, meta); err != nil {
			rec.persistErr = err
			return
		}
	}
	prog := md.Progress{Step: global, Wall: wall, RankAcct: quads, ConsumedCrashes: d.consumed}
	if err := d.ring.MarkProgress(prog); err != nil {
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
func (rec *recorder) assemble(idx int) *md.Checkpoint {
	root := rec.hist[0][idx]
	n := len(root.pos)
	cp := &md.Checkpoint{
		N:          n,
		TimestepFS: rec.d.rcfg.MD.TimestepFS,
		Pos:        append([]vec.V(nil), root.pos...),
		Vel:        make([]vec.V, n),
		Frc:        append([]vec.V(nil), root.frc...),
	}
	for rk := range rec.hist {
		copy(cp.Vel[rec.atomOff[rk]:rec.atomOff[rk+1]], rec.hist[rk][idx].vel)
	}
	if root.origin != nil {
		cp.ListOrigin = append([]vec.V(nil), root.origin...)
	}
	return cp
}

// replayPrice prices the localized repair of rank c when the cluster
// resumes at history index idx. The restore epoch is the newest rebuild
// step in epochSteps at or before idx — one the crashed rank is known to
// have completed; -1 is the attempt start. A rebuild the crash interrupted
// mid-migration is NOT a valid restore point: atoms may still be in flight
// between domains. From there the respawned rank replays its domain
// serially, so the price is its own compute over (epoch, idx] from the
// recorded history, floored at 0. Replay runs no collectives, so it has no
// Comm/Sync share; the bytes that restore the domain and re-send its halo
// inputs are not priced.
func (rec *recorder) replayPrice(c, idx int) (epoch int, replayT float64) {
	epoch = -1
	for _, es := range rec.epochSteps {
		if es > idx {
			break
		}
		epoch = es
	}
	if idx >= 0 {
		replayT = rec.hist[c][idx].acct.Comp
		if epoch >= 0 {
			replayT -= rec.hist[c][epoch].acct.Comp
		}
		if replayT < 0 {
			replayT = 0
		}
	}
	return epoch, replayT
}

// driver is the state RunResilient carries from one attempt to the next.
type driver struct {
	rcfg *ResilientConfig
	cost cluster.CostModel
	cfg  cluster.Config     // the cluster still standing: a global rewind drops a node
	wd   mpi.Watchdog       // the configured one, or the default when crashes are scripted
	ring *md.CheckpointRing // nil keeps checkpoints in memory only
	out  *ResilientResult

	stepsDone int              // globally completed steps behind the next attempt
	offset    float64          // scenario clock at the next attempt's start
	init      *md.Checkpoint   // state the next attempt starts from
	consumed  []int            // crash spec indices already recovered
	carried   []mpi.Accounting // per standing rank, merged over earlier attempts; nil until a resume or rewind

	restarts, maxRestarts int

	every int            // durable cadence in effect: CheckpointEvery until the tuner re-derives it
	tuner *recover.Tuner // nil unless TuneCheckpoint
}

// RunResilient executes the parallel MD under fault injection with
// checkpoint-restart recovery: resume → attempt loop → one rewind. With
// CheckpointDir set, checkpoints also persist to disk and an invocation
// that finds a valid one there resumes the killed run from it. A failed
// attempt is priced by driver.rewind and the next one starts from the
// rewind point after an injected rank crash: on the survivors of the
// dropped node (global) or with the crashed domain repaired in place
// (local). The discarded virtual time lands in the Lost accounting
// bucket. Other errors (including watchdog timeouts with no crash behind
// them) are returned as-is.
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
	d := &driver{
		rcfg: &rcfg, cost: cost, cfg: clusterCfg, wd: rcfg.Watchdog,
		out: &ResilientResult{}, init: rcfg.Init,
		maxRestarts: rcfg.MaxRestarts, every: rcfg.CheckpointEvery,
	}
	if d.maxRestarts == 0 {
		d.maxRestarts = crashSpecs
	}
	if !d.wd.Enabled() && crashSpecs > 0 {
		// Crash detection relies on bounded waits: without a watchdog the
		// survivors would park forever and the run would end in a sim
		// deadlock instead of a recoverable typed error.
		d.wd = mpi.DefaultWatchdog()
	}
	if rcfg.TuneCheckpoint {
		d.tuner = &recover.Tuner{Fixed: rcfg.CheckpointEvery, CkptCost: rcfg.CheckpointCost, MaxSteps: rcfg.Steps}
	}
	if rcfg.CheckpointDir != "" {
		d.ring = &md.CheckpointRing{Dir: rcfg.CheckpointDir, Keep: rcfg.KeepCheckpoints, Obs: rcfg.Obs}
		if err := d.resume(); err != nil {
			return nil, err
		}
	}
	for {
		rec, err := d.attempt()
		if err != nil {
			return nil, err
		}
		if rec.err == nil {
			return d.finish(rec)
		}
		if err := d.recover(rec); err != nil {
			return nil, err
		}
	}
}

// count feeds a resilience counter (nil-gated: a run without a registry
// pays nothing). Counters accumulate across the attempts of one invocation.
func (d *driver) count(name, help string, v float64) {
	if d.rcfg.Obs != nil {
		d.rcfg.Obs.Counter(name, help).Add(v)
	}
}

// resume restarts a killed run from the newest checkpoint in the ring that
// validates: the checkpoint fixes the dynamic state and the surviving rank
// count; the progress journal, when it reaches past the checkpoint, fixes
// what the killed process had additionally spent — that delta is Lost. An
// empty ring is a fresh run; it fills as steps complete.
func (d *driver) resume() error {
	cp, meta, skipped, err := d.ring.LoadNewest()
	if errors.Is(err, md.ErrNoCheckpoint) {
		return nil
	}
	if err != nil {
		return err
	}
	cpus := d.cfg.CPUsPerNode
	if n := len(meta.RankAcct); n == 0 || n%cpus != 0 {
		return fmt.Errorf("pmd: checkpoint has %d ranks, not a positive multiple of %d CPUs/node", n, cpus)
	}
	if meta.Step >= d.rcfg.Steps {
		return fmt.Errorf("pmd: checkpoint already at step %d of a %d-step run", meta.Step, d.rcfg.Steps)
	}
	d.cfg.Nodes = len(meta.RankAcct) / cpus
	d.stepsDone = meta.Step
	d.init = cp
	d.carried = make([]mpi.Accounting, len(meta.RankAcct))
	for i, q := range meta.RankAcct {
		d.carried[i] = quadToAcct(q)
		d.out.lostInherited += q[3]
	}
	resumeWall := meta.Wall
	var lostOnDisk float64
	if prog, perr := d.ring.ReadProgress(); perr == nil &&
		prog.Step >= meta.Step && len(prog.RankAcct) == len(meta.RankAcct) {
		d.consumed = prog.ConsumedCrashes
		resumeWall = prog.Wall
		for i, q := range prog.RankAcct {
			if lost := quadToAcct(q).Total() - d.carried[i].Total(); lost > 0 {
				d.carried[i].Lost += lost
				lostOnDisk += lost
			}
		}
	}
	d.out.Wall = resumeWall + d.rcfg.RestartCost
	d.offset = d.out.Wall
	d.out.Resumed = &ResumeInfo{Step: d.stepsDone, SkippedCheckpoints: skipped, LostOnDisk: lostOnDisk}
	return nil
}

// attempt runs the steps still owed on the standing cluster from d.init.
// The error it returns is fatal; a failure recover can price is rec.err.
func (d *driver) attempt() (*recorder, error) {
	rcfg := d.rcfg
	p := d.cfg.Nodes * d.cfg.CPUsPerNode
	rec := &recorder{
		d: d, p: p, hist: make([][]ckptEntry, p), atomOff: kernels.Partition(rcfg.System.N(), p, nil),
		acct: make([]mpi.Accounting, p), seen: map[int]int{}, local: rcfg.Recovery == RecoveryLocal,
	}
	cfg := rcfg.Config
	if rcfg.Scenario != nil {
		var err error
		rec.inj, err = fault.NewInjector(rcfg.Scenario, fault.Options{Offset: d.offset, ConsumedCrashes: d.consumed})
		if err != nil {
			return nil, err
		}
		cfg.Faults = rec.inj
	}
	cfg.Steps = rcfg.Steps - d.stepsDone
	cfg.Init = d.init
	cfg.Watchdog = d.wd
	cfg.onStep = rec.onStep
	// OnStep telemetry uses global step indices.
	cfg.stepBase = d.stepsDone
	rec.res, rec.accts, rec.err = runAttempt(d.cfg, d.cost, cfg)
	if rec.persistErr != nil {
		return nil, fmt.Errorf("pmd: durable checkpoint: %w", rec.persistErr)
	}
	return rec, nil
}

// finish merges the completing attempt into the result.
func (d *driver) finish(rec *recorder) (*ResilientResult, error) {
	out, res := d.out, rec.res
	out.Acct = rec.accts
	if d.carried != nil {
		out.Acct = d.carried
		for i := range rec.accts {
			out.Acct[i].Add(rec.accts[i])
		}
	}
	out.Final, out.finalBase = res, d.stepsDone
	out.Ranks = rec.p
	out.Energies = append(out.Energies, res.Energies...)
	out.Wall += res.Wall
	out.CheckpointInterval = d.every
	out.IntervalTuned = d.tuner != nil && d.tuner.Tuned()
	if rec.halted {
		return out, ErrHalted
	}
	// Preemption at the final boundary is indistinguishable from
	// finishing — only an actually shortened run reports it.
	if rec.preempted && d.stepsDone+len(res.Energies) < d.rcfg.Steps {
		d.count("repro_preemptions_total", "graceful checkpoint preemptions", 1)
		return out, ErrPreempted
	}
	return out, nil
}

// rewindStrategy is all the two crash repairs differ in while
// driver.rewind prices them; repairCrash books the returned loss.
//
//	failure        extra per-rank loss      drops         clamp  loss booked to
//	crash, global  none                     crashed node  no     Breakdown.Rewind
//	crash, local   crashed domain's replay  nobody        yes    Breakdown.Replay / Park
type rewindStrategy struct {
	extra    func(idx int) float64 // every rank's wait on top of its own loss, given the rewind index; nil is none
	clamp    bool                  // floor a rank's loss at zero
	dropNode int                   // node whose ranks leave the cluster, the rest renumbered; -1 keeps all
}

// rewound is what one rewind decided and booked.
type rewound struct {
	idx  int            // history index every rank rewound to; -1 when some rank had none
	cp   *md.Checkpoint // state at the rewind point; nil when idx < 0
	lost []float64      // Lost booked per rank of the failed attempt (numbering before the drop)
}

// rewind is the one place a failed attempt is priced. It finds the newest
// checkpoint every rank recorded, assembles it, merges each rank's
// accounting up to that point into d.carried, books what the rank spent
// past it (plus the strategy's extra) as Lost, splices the surviving
// energies into the result and moves the driver's step count, start state
// and clocks past the stall.
func (d *driver) rewind(rec *recorder, detected float64, s rewindStrategy) rewound {
	out := d.out
	rw := rewound{idx: rec.rewindIndex(), lost: make([]float64, rec.p)}
	extra := 0.0
	if s.extra != nil {
		extra = s.extra(rw.idx)
	}
	if d.carried == nil {
		d.carried = make([]mpi.Accounting, rec.p)
	}
	standing := d.carried[:0] // filtered in place: a survivor never lands past the slot it was read from
	for i, merged := range d.carried {
		var kept mpi.Accounting
		if rw.idx >= 0 {
			kept = rec.hist[i][rw.idx].acct
		}
		li := rec.accts[i].Total() - kept.Total() + extra
		if s.clamp && li < 0 {
			li = 0
		}
		rw.lost[i] = li
		merged.Add(kept)
		merged.Lost += li
		if i/d.cfg.CPUsPerNode == s.dropNode {
			out.lostDropped += merged.Lost
			continue
		}
		standing = append(standing, merged)
	}
	d.carried = standing
	if rw.idx >= 0 {
		rw.cp = rec.assemble(rw.idx)
		keep := rec.hist[0][rw.idx].step + 1 // steps of the failed attempt that survive
		out.Energies = append(out.Energies, rec.res.Energies[:keep]...)
		d.stepsDone += keep
		d.init = rw.cp
	}
	stall := detected + d.rcfg.RestartCost + extra
	out.Wall += stall
	d.offset += stall
	return rw
}

// recover prices a failed attempt and readies the driver for the next
// one. Only an injected rank crash is repaired; any other error comes
// back unchanged.
func (d *driver) recover(rec *recorder) error {
	var ce *mpi.CrashError
	if !errors.As(rec.err, &ce) {
		return rec.err
	}
	d.restarts++
	if d.restarts > d.maxRestarts {
		return fmt.Errorf("pmd: restart budget (%d) exhausted: %w", d.maxRestarts, ce)
	}
	// The failed attempt ran until the last rank stopped accruing time, a
	// lower bound the crash time refines.
	detected := ce.At
	for _, acct := range rec.accts {
		if t := acct.Total(); t > detected {
			detected = t
		}
	}
	return d.repairCrash(rec, ce, detected)
}

// repairCrash recovers from a rank crash with the configured strategy.
func (d *driver) repairCrash(rec *recorder, ce *mpi.CrashError, detected float64) error {
	rcfg, out := d.rcfg, d.out
	local := rcfg.Recovery == RecoveryLocal
	s := rewindStrategy{dropNode: -1}
	var epoch int
	var replayT float64
	switch {
	case local && rec.p < 2:
		return fmt.Errorf("pmd: localized recovery needs a surviving rank: %w", ce)
	case local:
		// The cluster resumes from the newest step EVERY rank completed
		// (the recorder keeps all of them in local mode). Healthy ranks
		// already hold that state — nobody rewinds, they park at the next
		// collective while the crashed domain is repaired. Rank numbering
		// and cluster size are unchanged, which is what keeps the
		// trajectory bitwise-identical to the fault-free run. Each rank
		// loses its own partial step past the resume point plus the wait
		// for the domain replay. (The park until crash DETECTION is
		// symmetric with the global rewind and stays out of the Lost bucket
		// for both.)
		s.clamp = true
		s.extra = func(idx int) float64 {
			epoch, replayT = rec.replayPrice(ce.Rank, idx)
			return replayT
		}
	case d.cfg.Nodes < 2:
		return fmt.Errorf("pmd: no surviving nodes after %w", ce)
	default:
		// The crash drops the rank's whole node and the survivors are
		// renumbered. Under the domain decomposition that re-tiles the
		// grid; reject a survivor count the PME pencils cannot tile
		// instead of running a malformed grid.
		s.dropNode = ce.Rank / d.cfg.CPUsPerNode
		if rcfg.Decomp == DecompDomain {
			if verr := ValidateDecomp(DecompDomain, (d.cfg.Nodes-1)*d.cfg.CPUsPerNode, rcfg.MD.PME); verr != nil {
				return fmt.Errorf("pmd: global rewind cannot re-tile the survivors: %w", verr)
			}
		}
	}
	base := d.stepsDone // the failed attempt's first step: epoch is an index into that attempt
	rw := d.rewind(rec, detected, s)

	var lost float64
	if local {
		c := ce.Rank
		var parked, replayLost float64
		for i, li := range rw.lost {
			if i == c {
				replayLost += li
			} else {
				parked += li
			}
		}
		out.Breakdown.Replay += replayLost
		out.Breakdown.Park += parked
		lost = replayLost + parked
		out.Local = append(out.Local, recover.Event{
			Rank: c, EpochStep: base + epoch + 1, ResumeStep: d.stepsDone, ReplaySteps: rw.idx - epoch,
			Detect: detected, Restore: rcfg.RestartCost, Replay: replayT, Park: parked,
		})
	} else {
		for _, li := range rw.lost {
			lost += li
		}
		out.Breakdown.Rewind += lost
		d.cfg.Nodes--
	}
	out.Recoveries = append(out.Recoveries, RecoveryEvent{
		CrashedRank: ce.Rank, DetectedAt: detected, RewindStep: d.stepsDone, Lost: lost, Checkpoint: rw.cp,
	})
	d.count("repro_recoveries_total", "crash-and-rewind recovery cycles", 1)
	if local {
		d.count("repro_recoveries_localized_total", "localized crash repairs", 1)
	}
	d.count("repro_recovery_lost_seconds_total", "virtual seconds discarded by crash rewinds", lost)
	if rec.inj != nil {
		if spec, ok := rec.inj.CrashSpecAt(ce.Rank); ok {
			d.consumed = append(d.consumed, spec)
		}
	}
	if d.tuner != nil {
		d.tuner.Fail(out.Wall)
		d.tuner.Progress(out.Wall, d.stepsDone)
		d.every, _ = d.tuner.Interval()
		if reg := rcfg.Obs; reg != nil {
			if mttf, ok := d.tuner.Estimate(); ok {
				reg.Gauge("repro_mttf_seconds", "online mean-time-to-failure estimate (virtual s)").Set(mttf)
			}
			reg.Gauge("repro_checkpoint_interval_steps", "durable checkpoint cadence in effect").Set(float64(d.every))
		}
	}
	return nil
}
