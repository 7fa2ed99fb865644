package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// RecoveryDetail splits the recovery bucket the way the resilient driver
// accounts lost work.
type RecoveryDetail struct {
	RewindSeconds float64 `json:"rewind_seconds"`
	ReplaySeconds float64 `json:"replay_seconds"`
	ParkSeconds   float64 `json:"park_seconds"`
	Events        int     `json:"events"`
}

// Attribution splits the measured wall clock into explanation buckets.
// The five buckets sum to WallSeconds by construction (see Analyze);
// that identity is what makes the report trustworthy — no time is
// invented and none goes missing.
type Attribution struct {
	ComputeSeconds   float64 `json:"compute_seconds"`
	CommSeconds      float64 `json:"comm_seconds"`
	WaitSeconds      float64 `json:"wait_seconds"`
	ImbalanceSeconds float64 `json:"imbalance_seconds"`
	RecoverySeconds  float64 `json:"recovery_seconds"`
	WallSeconds      float64 `json:"wall_seconds"`

	// Dominant names the bucket that explains the wall: "compute" when
	// computation is the majority of the wall (the run is compute-bound
	// and parallelism is paying), otherwise the largest non-compute
	// bucket — the bottleneck more ranks cannot fix.
	Dominant string `json:"dominant"`
}

// Sum returns the bucket total (== WallSeconds modulo clamping).
func (a Attribution) Sum() float64 {
	return a.ComputeSeconds + a.CommSeconds + a.WaitSeconds + a.ImbalanceSeconds + a.RecoverySeconds
}

// PhaseStat is the per-phase load-imbalance view across ranks.
type PhaseStat struct {
	Phase    string  `json:"phase"`
	MeanComp float64 `json:"mean_compute_seconds"`
	MaxComp  float64 `json:"max_compute_seconds"`
	MeanWall float64 `json:"mean_wall_seconds"`
	MaxWall  float64 `json:"max_wall_seconds"`
	// Imbalance is max/mean of the per-rank compute totals: 1.0 is a
	// perfectly balanced phase, 2.0 means the slowest rank computes
	// twice the average (half the cluster idles at the collective).
	Imbalance float64 `json:"imbalance_ratio"`
}

// CriticalPath summarizes the longest dependency chain through the
// step × phase grid: every phase ends in a collective, so the slowest
// rank of each cell gates everyone, and the critical path is the chain
// of per-cell maxima.
type CriticalPath struct {
	Seconds        float64 `json:"seconds"`
	ComputeSeconds float64 `json:"compute_seconds"`
	CommSeconds    float64 `json:"comm_seconds"`
	DominantRank   int     `json:"dominant_rank"`
	// Occupancy[r] is the fraction of grid cells whose slowest rank is
	// r (ties to the lowest rank). A flat profile means the bottleneck
	// moves around; a spike means one rank drags the whole run.
	Occupancy []float64 `json:"occupancy"`
}

// Profile is the versioned attribution document.
type Profile struct {
	Schema        string           `json:"schema"`
	Ranks         int              `json:"ranks"`
	Steps         int              `json:"steps"`
	WallSeconds   float64          `json:"wall_seconds"`
	Attribution   Attribution      `json:"attribution"`
	Phases        []PhaseStat      `json:"phases"`
	CriticalPath  CriticalPath     `json:"critical_path"`
	Collectives   []CollectiveStat `json:"collectives,omitempty"`
	CommMatrix    [][]int64        `json:"comm_matrix,omitempty"`
	NamedMatrices []NamedMatrix    `json:"named_matrices,omitempty"`
	Recovery      *RecoveryDetail  `json:"recovery,omitempty"`
}

// Analyze builds the attribution profile of a run from its timing table:
// rows[rank][i] is the rank's sample of global step base+i (base > 0 when
// the rows come from the completing attempt of a resumed or recovered
// run). Rows may be ragged; a step a rank has no row for reads as zero.
// comm, when non-nil, adds the run's communication log.
//
// The bucket totals come from the whole-run per-rank accounting (acct),
// not the per-step samples — the accounting also covers the unmeasured
// setup (the step-0 force evaluation velocity Verlet needs) and the
// attempts before base, so the identity  compute + comm + wait +
// imbalance + recovery = wall  holds for the full wall clock, not just
// the rows. The samples supply structure: which phase is imbalanced, and
// how much of the measured synchronization is directly explained by
// compute imbalance (the slowest rank's excess over the mean, per cell)
// versus residual wait at collectives (latency chains, fault windows,
// stalls). Structure covers the steps that have rows; Steps reports the
// global count.
func Analyze(rows [][]StepTiming, base int, wall float64, acct []mpi.Accounting, rec *RecoveryDetail, comm *Timeline) *Profile {
	ranks, ran := len(rows), 0
	if ranks < 1 {
		panic("perf: timing table has no ranks")
	}
	for _, row := range rows {
		if len(row) > ran {
			ran = len(row)
		}
	}
	p := &Profile{Schema: Schema, Ranks: ranks, Steps: base + ran, WallSeconds: wall}

	// Whole-run means across ranks.
	var meanComp, meanComm, meanSync, meanLost float64
	if n := len(acct); n > 0 {
		for _, a := range acct {
			meanComp += a.Comp
			meanComm += a.Comm
			meanSync += a.Sync
			meanLost += a.Lost
		}
		meanComp /= float64(n)
		meanComm /= float64(n)
		meanSync /= float64(n)
		meanLost /= float64(n)
	}

	// Per-phase rank totals and the per-cell imbalance integral.
	var imbDirect float64
	var compTot, wallTot [NumPhases][]float64
	for ph := 0; ph < NumPhases; ph++ {
		compTot[ph] = make([]float64, ranks)
		wallTot[ph] = make([]float64, ranks)
	}
	occ := make([]int, ranks)
	var cpSeconds, cpComp, cpComm float64
	for step := 0; step < ran; step++ {
		for ph := 0; ph < NumPhases; ph++ {
			var maxComp, meanCell, maxWall, maxComm float64
			slowest := 0
			for r, row := range rows {
				var s Sample
				if step < len(row) {
					s = row[step].Classic
					if ph == PhasePME {
						s = row[step].PME
					}
				}
				compTot[ph][r] += s.Comp
				wallTot[ph][r] += s.Wall
				meanCell += s.Comp
				if s.Comp > maxComp {
					maxComp = s.Comp
				}
				if c := s.Comm + s.Sync; c > maxComm {
					maxComm = c
				}
				if s.Wall > maxWall {
					maxWall = s.Wall
					slowest = r
				}
			}
			meanCell /= float64(ranks)
			imbDirect += maxComp - meanCell
			cpSeconds += maxWall
			cpComp += maxComp
			cpComm += maxComm
			occ[slowest]++
		}
	}

	// Attribution buckets. residual is the wall time the mean rank has
	// no accounting for (scheduler slack; ~0 in the simulated cluster);
	// it lands in the wait bucket so the identity stays exact.
	residual := wall - (meanComp + meanComm + meanSync + meanLost)
	imb := imbDirect
	if imb > meanSync {
		imb = meanSync
	}
	if imb < 0 {
		imb = 0
	}
	wait := meanSync - imb + residual
	if wait < 0 {
		imb += wait
		wait = 0
		if imb < 0 {
			imb = 0
		}
	}
	att := Attribution{
		ComputeSeconds:   meanComp,
		CommSeconds:      meanComm,
		WaitSeconds:      wait,
		ImbalanceSeconds: imb,
		RecoverySeconds:  meanLost,
		WallSeconds:      wall,
	}
	att.Dominant = dominant(att)
	p.Attribution = att

	// Phase stats.
	for ph := 0; ph < NumPhases; ph++ {
		st := PhaseStat{Phase: PhaseNames[ph]}
		for r := 0; r < ranks; r++ {
			c, w := compTot[ph][r], wallTot[ph][r]
			st.MeanComp += c
			st.MeanWall += w
			if c > st.MaxComp {
				st.MaxComp = c
			}
			if w > st.MaxWall {
				st.MaxWall = w
			}
		}
		st.MeanComp /= float64(ranks)
		st.MeanWall /= float64(ranks)
		if st.MeanComp > 0 {
			st.Imbalance = st.MaxComp / st.MeanComp
		}
		p.Phases = append(p.Phases, st)
	}

	// Critical path.
	cp := CriticalPath{
		Seconds:        cpSeconds,
		ComputeSeconds: cpComp,
		CommSeconds:    cpComm,
		Occupancy:      make([]float64, ranks),
	}
	if cells := ran * NumPhases; cells > 0 {
		best := 0
		for r := 0; r < ranks; r++ {
			cp.Occupancy[r] = float64(occ[r]) / float64(cells)
			if occ[r] > occ[best] {
				best = r
			}
		}
		cp.DominantRank = best
	}
	p.CriticalPath = cp

	if comm != nil {
		comm.export(p)
	}
	if rec != nil {
		r := *rec
		p.Recovery = &r
	}
	return p
}

// export copies the log's aggregates into p, deterministically ordered.
func (tl *Timeline) export(p *Profile) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	for _, c := range tl.colls {
		p.Collectives = append(p.Collectives, *c)
	}
	sort.Slice(p.Collectives, func(i, j int) bool { return p.Collectives[i].Kind < p.Collectives[j].Kind })
	var anyPair bool
	for r := 0; r < len(tl.mat) && !anyPair; r++ {
		for _, b := range tl.mat[r] {
			if b != 0 {
				anyPair = true
				break
			}
		}
	}
	if anyPair {
		p.CommMatrix = cloneMatrix(tl.mat)
	}
	for _, nm := range tl.named {
		p.NamedMatrices = append(p.NamedMatrices, NamedMatrix{Name: nm.Name, Calls: nm.Calls, Bytes: cloneMatrix(nm.Bytes)})
	}
	sort.Slice(p.NamedMatrices, func(i, j int) bool { return p.NamedMatrices[i].Name < p.NamedMatrices[j].Name })
}

func cloneMatrix(m [][]int64) [][]int64 {
	out := make([][]int64, len(m))
	for r := range m {
		out[r] = append([]int64(nil), m[r]...)
	}
	return out
}

// dominant names the bucket that explains the wall clock.
func dominant(a Attribution) string {
	if a.WallSeconds > 0 && a.ComputeSeconds > 0.5*a.WallSeconds {
		return "compute"
	}
	best, bestV := "compute", a.ComputeSeconds
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"comm", a.CommSeconds},
		{"wait", a.WaitSeconds},
		{"imbalance", a.ImbalanceSeconds},
		{"recovery", a.RecoverySeconds},
	} {
		if c.v > bestV {
			best, bestV = c.name, c.v
		}
	}
	return best
}

// RecordObs publishes the profile's headline numbers as gauges:
// repro_imbalance_ratio{phase}, repro_attribution_seconds{bucket} and
// repro_critical_path_seconds.
func (p *Profile) RecordObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, st := range p.Phases {
		reg.Gauge("repro_imbalance_ratio",
			"max/mean per-rank compute seconds of the phase (1.0 = balanced)",
			obs.L("phase", st.Phase)).Set(st.Imbalance)
	}
	help := "wall-clock attribution bucket of the last profiled run"
	reg.Gauge("repro_attribution_seconds", help, obs.L("bucket", "compute")).Set(p.Attribution.ComputeSeconds)
	reg.Gauge("repro_attribution_seconds", help, obs.L("bucket", "comm")).Set(p.Attribution.CommSeconds)
	reg.Gauge("repro_attribution_seconds", help, obs.L("bucket", "wait")).Set(p.Attribution.WaitSeconds)
	reg.Gauge("repro_attribution_seconds", help, obs.L("bucket", "imbalance")).Set(p.Attribution.ImbalanceSeconds)
	reg.Gauge("repro_attribution_seconds", help, obs.L("bucket", "recovery")).Set(p.Attribution.RecoverySeconds)
	reg.Gauge("repro_critical_path_seconds",
		"sum over step/phase cells of the slowest rank's wall seconds").Set(p.CriticalPath.Seconds)
}

// Encode renders the profile as deterministic, indented JSON with a
// trailing newline — the byte representation every surface serves.
func (p *Profile) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Parse decodes a profile document, rejecting unknown schemas. No program
// reads one back; it is the read side of the published format, and what
// the serve tests check an emitted profile with.
func Parse(b []byte) (*Profile, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	var p Profile
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("perf: bad profile: %w", err)
	}
	if p.Schema != Schema {
		return nil, fmt.Errorf("perf: unsupported profile schema %q (want %q)", p.Schema, Schema)
	}
	return &p, nil
}
