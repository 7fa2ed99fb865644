package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/pmd"
	"repro/internal/topol"
	"repro/internal/vec"
)

// Env executes job specs on the deterministic engine. It caches the
// expensive immutable inputs — relaxed solvated systems and figure
// studies — across jobs, and memoizes the trajectories jobs compute: each
// relaxed box is a workload whose one pmd.Tape every run, every network
// of a sweep and every analysis reads, at any rank count. Workloads and
// studies are the entries of one memo, held under one LRU byte budget
// (memoBudget). The caches affect speed only, never results;
// ComputeReference bypasses the tapes: each of its runs and analyses
// reads a private one.
// Safe for concurrent use.
type Env struct {
	// KernelWorkers bounds one job's host goroutines: the HostWorkers of
	// its simulations and trajectory reads. Set before first use: a tape's
	// engine lives while jobs over it are in flight, so flipping it
	// mid-life would extend a trajectory under the old setting (with the
	// same result bytes).
	KernelWorkers int

	mu    sync.Mutex
	memos map[any]*memo // by sysCacheKey or studyCacheKey
	lru   list.List     // of *memo, most recently used first

	// The server's memo metrics; nil outside a server.
	memoBytes     *obs.Gauge
	memoEvictions *obs.Counter
}

// NewEnv builds an empty executor environment.
func NewEnv() *Env {
	return &Env{memos: map[any]*memo{}}
}

type sysCacheKey struct {
	atoms int
	seed  uint64
}

// workload is one relaxed solvated box, its MD config and the tape of its
// one trajectory. Relax mutates positions in place, so the build runs
// exactly once; afterwards the system is read-only and shared by every
// concurrent job (pmd treats System as shared read-only topology).
type workload struct {
	once  sync.Once
	sys   *topol.System
	mdCfg md.Config
	tape  *pmd.Tape
	bytes atomic.Int64 // systemBytes, once built
}

// systemBytes is what a relaxed box holds: its per-atom arrays and its
// topology lists.
func systemBytes(sys *topol.System) int64 {
	b := int64(unsafe.Sizeof(*sys)) +
		int64(len(sys.Atoms))*int64(unsafe.Sizeof(topol.Atom{})) +
		int64(len(sys.Pos))*int64(unsafe.Sizeof(vec.V{})) +
		int64(len(sys.Residues))*int64(unsafe.Sizeof(topol.Residue{})) +
		int64(len(sys.Types))*int64(unsafe.Sizeof(topol.AtomType{})) +
		4*int64(2*len(sys.Bonds)+3*len(sys.Angles)+4*len(sys.Dihedrals)+4*len(sys.Impropers)+2*len(sys.Pairs14))
	for i := range sys.Atoms {
		b += 4 * int64(1+len(sys.Excl.Of(i)))
	}
	return b
}

// memoBudget bounds the bytes the memo keeps: workloads (boxes and tapes)
// and studies together. After every job the Env evicts whole
// least-recently-used entries until the rest fit.
const memoBudget = 64 << 20

// What a job adds to its workload's tape, per atom, is bounded by two
// terms that TestMemoEstimateBoundsBytes pins:
//
//   - memoListBytes for its first list generation: the step −1 pair list,
//     which every rank count shares, and its rank count's geometry and
//     first ownership epoch, the list counted at its capacity. The worst
//     case is the pair list of the largest box (about 3.2 kB per atom),
//     and the size matrices of the most ranks on the smallest box.
//   - memoStateBytes for each kept state (steps+1 of them): its positions,
//     velocities and forces, and its share of the later list
//     generations, one every 4 steps at the fastest on the served boxes
//     (the smallest with the most ranks is the worst case).
const (
	memoListBytes  = 4096
	memoStateBytes = 640
)

// memoEstimate bounds what a job over atoms atoms and steps steps adds to
// the memo.
func memoEstimate(atoms, steps int) int64 {
	return int64(atoms) * (memoListBytes + int64(steps+1)*memoStateBytes)
}

// memoEligible reports whether a job over atoms atoms and steps steps
// reads its workload's tape: its estimate must fit the budget, so no one
// job can grow a memo past it. Any other job reads a private tape.
func memoEligible(atoms, steps int) bool { return memoEstimate(atoms, steps) <= memoBudget }

// memo is one entry of the memo: a workload or a figure study. Exactly
// one of the two is set.
type memo struct {
	key   any // sysCacheKey or studyCacheKey
	wl    *workload
	study *studyEntry
	elem  *list.Element // its place in Env.lru
	size  int64         // bytes() at the last trim
}

func (m *memo) bytes() int64 {
	if m.wl != nil {
		return m.wl.bytes.Load() + m.wl.tape.Bytes()
	}
	return m.study.bytes.Load()
}

// entry returns the memo's entry of key, built by fresh when there is
// none, and makes it the most recently used.
func (e *Env) entry(key any, fresh func() *memo) *memo {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, ok := e.memos[key]
	if !ok {
		m = fresh()
		m.key = key
		e.memos[key] = m
		m.elem = e.lru.PushFront(m)
	} else {
		e.lru.MoveToFront(m.elem)
	}
	return m
}

// workload returns the workload of (atoms, seed), building its box on
// first use: md.NewSolvatedWorkload's box at workload seed seed+1.
func (e *Env) workload(atoms int, seed uint64) *workload {
	wl := e.entry(sysCacheKey{atoms: atoms, seed: seed}, func() *memo { return &memo{wl: &workload{tape: pmd.NewTape()}} }).wl
	wl.once.Do(func() {
		sys, cfg, _ := md.NewSolvatedWorkload(atoms, seed+1, nil) // nothing to veto: tiling is per job, checked at admission
		wl.sys, wl.mdCfg = sys, cfg
		wl.bytes.Store(systemBytes(sys))
	})
	return wl
}

// system returns the relaxed box of (atoms, seed) and its MD config.
func (e *Env) system(atoms int, seed uint64) (*topol.System, md.Config) {
	wl := e.workload(atoms, seed)
	return wl.sys, wl.mdCfg
}

// tape is the spec's tape, its workload's, or nil (a private one) when
// memoize is off or the job is over the eligibility bound.
func (e *Env) tape(spec JobSpec, memoize bool) *pmd.Tape {
	if !memoize || !memoEligible(spec.Atoms, spec.Steps) {
		return nil
	}
	return e.workload(spec.Atoms, spec.Seed).tape
}

// trim evicts least-recently-used entries until the rest fit budget. A
// job still holding an evicted entry finishes over it; the memory goes
// with the last holder.
func (e *Env) trim(budget int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var total int64
	for el := e.lru.Front(); el != nil; el = el.Next() {
		m := el.Value.(*memo)
		m.size = m.bytes()
		total += m.size
	}
	for total > budget {
		m := e.lru.Remove(e.lru.Back()).(*memo)
		delete(e.memos, m.key)
		total -= m.size
		if e.memoEvictions != nil {
			e.memoEvictions.Add(1)
		}
	}
	if e.memoBytes != nil {
		e.memoBytes.Set(float64(total))
	}
}

type studyCacheKey struct {
	quick bool
	steps int
	seed  uint64
}

// studyEntry is one figures study. The Suite's run cache is not safe for
// concurrent use, so executions of the same study serialize on mu;
// distinct studies run in parallel.
type studyEntry struct {
	once  sync.Once
	mu    sync.Mutex
	study *core.Study
	bytes atomic.Int64 // its system's and suite's, as of its last figure
}

// study returns the shared figure study for the key, building its
// 3552-atom system on first use.
func (e *Env) study(k studyCacheKey) *studyEntry {
	ent := e.entry(k, func() *memo { return &memo{study: &studyEntry{}} }).study
	ent.once.Do(func() {
		ent.study = core.NewStudy(core.Options{Quick: k.quick, Steps: k.steps, SystemSeed: k.seed, ClusterSeed: k.seed})
	})
	return ent
}

func middleware(name string) pmd.MiddlewareKind {
	if name == "cmpi" {
		return pmd.MiddlewareCMPI
	}
	return pmd.MiddlewareMPI
}

// decompFor resolves the spec's decomposition and checks it can tile the
// requested ranks on the job's actual PME mesh. Normalize runs the same
// check on md.SolvatedPME, and admission, journal replay and
// ComputeReference all normalize, so it fails only for a direct Execute
// of a spec that skipped Normalize — still the client's impossible
// geometry, hence KindBadRequest, not an internal error.
func decompFor(spec JobSpec, mdCfg md.Config) (pmd.DecompKind, error) {
	dk, err := pmd.ParseDecomp(spec.Decomp)
	if err != nil {
		return 0, Errf(KindBadRequest, "%v", err)
	}
	if err := pmd.ValidateDecomp(dk, spec.Procs, mdCfg.PME); err != nil {
		return 0, Errf(KindBadRequest, "%v", err)
	}
	return dk, nil
}

func clusterFor(spec JobSpec, netName string) cluster.Config {
	net, _ := netmodel.ByName(netName)
	return cluster.Config{
		Nodes: spec.Procs / spec.CPUs, CPUsPerNode: spec.CPUs, Net: net, Seed: spec.Seed,
	}
}

// posDigest hashes positions bitwise (little-endian float64 triples): two
// runs agree on the digest iff they agree on every position bit.
func posDigest(pos []vec.V) string {
	h := sha256.New()
	var buf [24]byte
	for _, p := range pos {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Y))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(p.Z))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runPayload is the result of a KindRun job. Every field is invariant
// under checkpoint resume (PR 4's bitwise-restart guarantee covers the
// final state; wall clocks and per-attempt traces are NOT invariant and
// are deliberately absent), so a job computed across any number of
// preemption cycles emits bytes identical to an uninterrupted one.
type runPayload struct {
	Kind   string `json:"kind"`
	Atoms  int    `json:"atoms"`
	Steps  int    `json:"steps"`
	P      int    `json:"p"`
	Energy struct {
		Classic float64 `json:"classic"`
		PME     float64 `json:"pme"`
		Kinetic float64 `json:"kinetic"`
		Total   float64 `json:"total"`
	} `json:"energy"`
	FinalPosSHA256 string `json:"final_pos_sha256"`
}

// StepFunc observes one completed MD step of a run job: the global step
// index, its timing split and its energy report. Called on the engine's
// scheduler thread — keep it fast and never block.
type StepFunc func(step int, timing pmd.StepTiming, energy md.EnergyReport)

// execRun runs the resilient parallel MD for spec over tape (nil: over a
// private one). ckptDir, when non-empty, durably checkpoints the run there
// (resuming any parked state found, which opens a private tape); preempt,
// when non-nil, gracefully parks the run at a checkpoint boundary (the
// returned error is pmd.ErrPreempted); onStep, when non-nil, streams each
// completed step. The returned ResumeInfo reports whether this invocation
// resumed from disk. The second payload is the encoded
// bottleneck-attribution profile of the successful run — telemetry about
// this execution (wall clocks, restarts), deliberately separate from the
// resume-invariant result bytes.
func (e *Env) execRun(spec JobSpec, ckptDir string, preempt func() bool, onStep StepFunc, tape *pmd.Tape) ([]byte, []byte, *pmd.ResumeInfo, error) {
	sys, mdCfg := e.system(spec.Atoms, spec.Seed)
	dk, derr := decompFor(spec, mdCfg)
	if derr != nil {
		return nil, nil, nil, derr
	}

	if ckptDir != "" {
		// Completion-crash edge: the run finished and checkpointed its last
		// step, but the crash hit before the result reached the store. A
		// resume would have zero steps to run, so wipe and recompute — the
		// recomputation is bitwise identical.
		ring := &md.CheckpointRing{Dir: ckptDir}
		if _, meta, _, err := ring.LoadNewest(); err == nil && meta.Step >= spec.Steps {
			if err := os.RemoveAll(ckptDir); err != nil {
				return nil, nil, nil, Errf(KindTransient, "reset completed checkpoint dir: %v", err)
			}
		}
	}

	var hook func(int, pmd.StepTiming, md.EnergyReport) bool
	if onStep != nil || preempt != nil {
		hook = func(step int, timing pmd.StepTiming, energy md.EnergyReport) bool {
			if onStep != nil {
				onStep(step, timing, energy)
			}
			return preempt != nil && preempt()
		}
	}
	res, err := pmd.RunResilient(clusterFor(spec, spec.Net), cluster.PentiumIII1GHz(), pmd.ResilientConfig{
		Config: pmd.Config{
			System:      sys,
			MD:          mdCfg,
			Steps:       spec.Steps,
			Middleware:  middleware(spec.MW),
			Decomp:      dk,
			Observer:    perf.NewTimeline(),
			Tape:        tape,
			HostWorkers: e.KernelWorkers,
		},
		CheckpointEvery: 1,
		CheckpointDir:   ckptDir,
		OnStep:          hook,
	})
	if err != nil {
		var resumed *pmd.ResumeInfo
		if res != nil {
			resumed = res.Resumed
		}
		return nil, nil, resumed, err
	}

	var p runPayload
	p.Kind = string(KindRun)
	p.Atoms, p.Steps, p.P = spec.Atoms, spec.Steps, res.Ranks
	last := res.Energies[len(res.Energies)-1]
	p.Energy.Classic = last.Classic()
	p.Energy.PME = last.PME()
	p.Energy.Kinetic = last.Kinetic
	p.Energy.Total = last.Total()
	p.FinalPosSHA256 = posDigest(res.Final.FinalPos)
	buf, merr := json.Marshal(p)
	if merr != nil {
		return nil, nil, res.Resumed, Errf(KindInternal, "marshal run payload: %v", merr)
	}
	prof, perr := res.Profile().Encode()
	if perr != nil {
		prof = nil // provenance only; never fail the job over it
	}
	return buf, prof, res.Resumed, nil
}

// sweepPayload is the result of a KindSweep job: the same short run
// compared across interconnects, in the paper's comp/comm/sync split
// (virtual seconds, deterministic).
type sweepPayload struct {
	Kind string     `json:"kind"`
	Rows []sweepRow `json:"rows"`
}

type sweepRow struct {
	Net  string  `json:"net"`
	Wall float64 `json:"wall_s"`
	Comp float64 `json:"comp_s"`
	Comm float64 `json:"comm_s"`
	Sync float64 `json:"sync_s"`
}

// execSweep runs every network of spec over tape (nil: each directly):
// the networks change the timing of one trajectory, never its physics.
func (e *Env) execSweep(spec JobSpec, tape *pmd.Tape) ([]byte, error) {
	sys, mdCfg := e.system(spec.Atoms, spec.Seed)
	dk, derr := decompFor(spec, mdCfg)
	if derr != nil {
		return nil, derr
	}
	var p sweepPayload
	p.Kind = string(KindSweep)
	for _, name := range spec.Nets {
		res, err := pmd.Run(clusterFor(spec, name), cluster.PentiumIII1GHz(), pmd.Config{
			System:      sys,
			MD:          mdCfg,
			Steps:       spec.Steps,
			Middleware:  middleware(spec.MW),
			Decomp:      dk,
			Tape:        tape,
			HostWorkers: e.KernelWorkers,
		})
		if err != nil {
			return nil, Errf(KindInternal, "sweep %s: %v", name, err)
		}
		row := sweepRow{Net: name, Wall: res.Wall}
		for _, a := range res.Acct {
			row.Comp += a.Comp
			row.Comm += a.Comm
			row.Sync += a.Sync
		}
		p.Rows = append(p.Rows, row)
	}
	buf, err := json.Marshal(p)
	if err != nil {
		return nil, Errf(KindInternal, "marshal sweep payload: %v", err)
	}
	return buf, nil
}

// analysisPayload is the result of a KindAnalysis job.
type analysisPayload struct {
	Kind       string    `json:"kind"`
	Observable string    `json:"observable"`
	R          []float64 `json:"r,omitempty"`   // rdf bin centers (Å)
	G          []float64 `json:"g,omitempty"`   // rdf values
	MSD        []float64 `json:"msd,omitempty"` // per-lag mean square displacement (Å²)
}

// execAnalysis computes spec's observable over the first spec.Steps+1
// frames of tape's trajectory (nil: of a private tape's).
func (e *Env) execAnalysis(spec JobSpec, tape *pmd.Tape) ([]byte, error) {
	sys, mdCfg := e.system(spec.Atoms, spec.Seed)
	frames, err := tape.Positions(pmd.Config{System: sys, MD: mdCfg, HostWorkers: e.KernelWorkers}, spec.Steps)
	if err != nil {
		return nil, Errf(KindInternal, "trajectory: %v", err)
	}
	return analyze(spec.Observable, sys, frames)
}

// analyze encodes the analysis payload of observable over frames of sys's
// water oxygens.
func analyze(observable string, sys *topol.System, frames [][]vec.V) ([]byte, error) {
	names := make([]string, sys.N())
	for i, a := range sys.Atoms {
		names[i] = a.Name
	}
	sel := analysis.SelectByName(names, "OW")

	p := analysisPayload{Kind: string(KindAnalysis), Observable: observable}
	switch observable {
	case "rdf":
		rmax := math.Min(6.0, sys.Box.MaxCutoff())
		r, g, err := analysis.RDFFrames(sys.Box, frames, sel, sel, rmax, 0.25)
		if err != nil {
			return nil, Errf(KindInternal, "rdf: %v", err)
		}
		p.R, p.G = r, g
	case "msd":
		msd, err := analysis.MSD(frames, sel)
		if err != nil {
			return nil, Errf(KindInternal, "msd: %v", err)
		}
		p.MSD = msd
	}
	buf, err := json.Marshal(p)
	if err != nil {
		return nil, Errf(KindInternal, "marshal analysis payload: %v", err)
	}
	return buf, nil
}

// execFigure renders one paper figure as CSV bytes. Executions of the
// same study serialize (the Suite's run cache is single-threaded) but
// benefit from its cell cache across jobs.
func (e *Env) execFigure(spec JobSpec) ([]byte, error) {
	ent := e.study(studyCacheKey{quick: spec.Quick, steps: spec.Steps, seed: spec.Seed})
	ent.mu.Lock()
	defer ent.mu.Unlock()
	var buf bytes.Buffer
	err := ent.study.Figure(spec.Figure, &buf, core.FormatCSV)
	ent.bytes.Store(systemBytes(ent.study.System()) + ent.study.Suite.Bytes())
	if err != nil {
		return nil, Errf(KindInternal, "figure %s: %v", spec.Figure, err)
	}
	return buf.Bytes(), nil
}

// Execute dispatches spec to its executor over the memo, then trims the
// memo to its budget. Only KindRun jobs use the checkpoint directory, the
// preempt hook and the step callback, and only they return an attribution
// profile; the other kinds are short and atomic.
func (e *Env) Execute(spec JobSpec, ckptDir string, preempt func() bool, onStep StepFunc) (payload, profile []byte, resumed *pmd.ResumeInfo, err error) {
	defer e.trim(memoBudget)
	return e.execute(spec, ckptDir, preempt, onStep, true)
}

// execute dispatches spec to its executor, over the memo when memoize is
// set and the job is eligible, else directly.
func (e *Env) execute(spec JobSpec, ckptDir string, preempt func() bool, onStep StepFunc, memoize bool) (payload, profile []byte, resumed *pmd.ResumeInfo, err error) {
	switch spec.Kind {
	case KindRun:
		return e.execRun(spec, ckptDir, preempt, onStep, e.tape(spec, memoize))
	case KindSweep:
		buf, err := e.execSweep(spec, e.tape(spec, memoize))
		return buf, nil, nil, err
	case KindAnalysis:
		buf, err := e.execAnalysis(spec, e.tape(spec, memoize))
		return buf, nil, nil, err
	case KindFigure:
		buf, err := e.execFigure(spec)
		return buf, nil, nil, err
	}
	return nil, nil, nil, Errf(KindInternal, "unknown kind %q", spec.Kind)
}

// ComputeReference computes spec's result directly, outside any server —
// the ground truth the chaos harness compares served bytes against. It
// shares the relaxed systems but no memoized tape (its runs and analyses
// read private tapes), so served bytes are checked against ones no memo
// touched. The spec is normalized first; the computation never touches
// disk.
func (e *Env) ComputeReference(spec JobSpec) ([]byte, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	buf, _, _, err := e.execute(spec, "", nil, nil, false)
	return buf, err
}

// errIsPreempted reports whether err is the graceful-preemption sentinel.
func errIsPreempted(err error) bool { return errors.Is(err, pmd.ErrPreempted) }
