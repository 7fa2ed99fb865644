package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"os"
	"sync"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/perf"
	"repro/internal/pmd"
	"repro/internal/topol"
	"repro/internal/vec"
)

// Env executes job specs on the deterministic engine. It caches the
// expensive immutable inputs — relaxed solvated systems and figure
// studies — across jobs; the caches affect speed only, never results.
// Safe for concurrent use.
type Env struct {
	// KernelWorkers is threaded into every built md.Config and study
	// (md.Config.KernelWorkers). Set before first use: caches key on the
	// job inputs only, so flipping it mid-life would hand out configs
	// built under the old setting (with the same result bytes).
	KernelWorkers int

	mu      sync.Mutex
	systems map[sysCacheKey]*sysEntry
	studies map[studyCacheKey]*studyEntry
}

// NewEnv builds an empty executor environment.
func NewEnv() *Env {
	return &Env{
		systems: map[sysCacheKey]*sysEntry{},
		studies: map[studyCacheKey]*studyEntry{},
	}
}

type sysCacheKey struct {
	atoms int
	seed  uint64
}

// sysEntry is one relaxed solvated box. Relax mutates positions in place,
// so the build runs exactly once; afterwards the system is read-only and
// shared by every concurrent run (pmd treats System as shared read-only
// topology, and the sequential path copies positions into its Engine).
type sysEntry struct {
	once  sync.Once
	sys   *topol.System
	mdCfg md.Config
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
}

// system returns the relaxed solvated box for (atoms, seed), building it
// on first use. It is the chaos harness's workload with the same seed
// convention, so serve results are comparable with the soak corpus.
func (e *Env) system(atoms int, seed uint64) (*topol.System, md.Config) {
	k := sysCacheKey{atoms: atoms, seed: seed}
	e.mu.Lock()
	ent, ok := e.systems[k]
	if !ok {
		ent = &sysEntry{}
		e.systems[k] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		sys, cfg, _ := md.NewSolvatedWorkload(atoms, seed+1, nil) // nothing to veto: tiling is per job, in decompFor
		cfg.KernelWorkers = e.KernelWorkers
		ent.sys, ent.mdCfg = sys, cfg
	})
	return ent.sys, ent.mdCfg
}

// study returns the shared figure study for the key, building its
// 3552-atom system on first use.
func (e *Env) study(k studyCacheKey) *studyEntry {
	e.mu.Lock()
	ent, ok := e.studies[k]
	if !ok {
		ent = &studyEntry{}
		e.studies[k] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		ent.study = core.NewStudy(core.Options{
			Quick: k.quick, Steps: k.steps, SystemSeed: k.seed, ClusterSeed: k.seed,
			KernelWorkers: e.KernelWorkers,
		})
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
// requested ranks on the job's actual PME mesh. Normalize already vetted
// the name, but the mesh depends on the solvated-box size, so the tiling
// check can only happen here — a failure is the client's request asking
// for impossible geometry, hence KindBadRequest, not an internal error.
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

// ExecRun runs the resilient parallel MD for spec. ckptDir, when
// non-empty, durably checkpoints the run there (resuming any parked state
// found); preempt, when non-nil, gracefully parks the run at a checkpoint
// boundary (the returned error is pmd.ErrPreempted); onStep, when
// non-nil, streams each completed step. The returned ResumeInfo reports
// whether this invocation resumed from disk. The second payload is the
// encoded bottleneck-attribution profile of the successful run —
// telemetry about this execution (wall clocks, restarts), deliberately
// separate from the resume-invariant result bytes.
func (e *Env) ExecRun(spec JobSpec, ckptDir string, preempt func() bool, onStep StepFunc) ([]byte, []byte, *pmd.ResumeInfo, error) {
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

	res, err := pmd.RunResilient(clusterFor(spec, spec.Net), cluster.PentiumIII1GHz(), pmd.ResilientConfig{
		Config: pmd.Config{
			System:     sys,
			MD:         mdCfg,
			Steps:      spec.Steps,
			Middleware: middleware(spec.MW),
			Decomp:     dk,
			Perf:       perf.NewTimeline(spec.Procs),
			OnStep:     onStep,
		},
		CheckpointEvery: 1,
		CheckpointDir:   ckptDir,
		Preempt:         preempt,
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

func (e *Env) execSweep(spec JobSpec) ([]byte, error) {
	sys, mdCfg := e.system(spec.Atoms, spec.Seed)
	dk, derr := decompFor(spec, mdCfg)
	if derr != nil {
		return nil, derr
	}
	var p sweepPayload
	p.Kind = string(KindSweep)
	for _, name := range spec.Nets {
		res, err := pmd.Run(clusterFor(spec, name), cluster.PentiumIII1GHz(), pmd.Config{
			System:     sys,
			MD:         mdCfg,
			Steps:      spec.Steps,
			Middleware: middleware(spec.MW),
			Decomp:     dk,
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

func (e *Env) execAnalysis(spec JobSpec) ([]byte, error) {
	sys, mdCfg := e.system(spec.Atoms, spec.Seed)
	eng := md.NewEngine(sys, mdCfg)
	eng.InitVelocities(mdCfg.Temperature, mdCfg.Seed)
	frames := make([][]vec.V, 0, spec.Steps+1)
	frames = append(frames, append([]vec.V(nil), eng.Pos...))
	for s := 0; s < spec.Steps; s++ {
		eng.Step(nil, nil)
		frames = append(frames, append([]vec.V(nil), eng.Pos...))
	}

	names := make([]string, sys.N())
	for i, a := range sys.Atoms {
		names[i] = a.Name
	}
	sel := analysis.SelectByName(names, "OW")

	p := analysisPayload{Kind: string(KindAnalysis), Observable: spec.Observable}
	switch spec.Observable {
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
	if err := ent.study.Figure(spec.Figure, &buf, core.FormatCSV); err != nil {
		return nil, Errf(KindInternal, "figure %s: %v", spec.Figure, err)
	}
	return buf.Bytes(), nil
}

// Execute dispatches spec to its executor. Only KindRun jobs use the
// checkpoint directory, the preempt hook and the step callback, and only
// they return an attribution profile; the other kinds are short and
// atomic.
func (e *Env) Execute(spec JobSpec, ckptDir string, preempt func() bool, onStep StepFunc) (payload, profile []byte, resumed *pmd.ResumeInfo, err error) {
	switch spec.Kind {
	case KindRun:
		return e.ExecRun(spec, ckptDir, preempt, onStep)
	case KindSweep:
		buf, err := e.execSweep(spec)
		return buf, nil, nil, err
	case KindAnalysis:
		buf, err := e.execAnalysis(spec)
		return buf, nil, nil, err
	case KindFigure:
		buf, err := e.execFigure(spec)
		return buf, nil, nil, err
	}
	return nil, nil, nil, Errf(KindInternal, "unknown kind %q", spec.Kind)
}

// ComputeReference computes spec's result directly, outside any server —
// the ground truth the chaos harness compares served bytes against. The
// spec is normalized first; the computation never touches disk.
func (e *Env) ComputeReference(spec JobSpec) ([]byte, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	buf, _, _, err := e.Execute(spec, "", nil, nil)
	return buf, err
}

// errIsPreempted reports whether err is the graceful-preemption sentinel.
func errIsPreempted(err error) bool { return errors.Is(err, pmd.ErrPreempted) }
