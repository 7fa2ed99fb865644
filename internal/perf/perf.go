// Package perf is the performance-attribution subsystem: an analyzer that
// explains a run's wall clock the way the source paper explains CHARMM's —
// but automatically. Where the paper decomposes wall time into phases by
// hand (§3.2), Analyze computes the critical path through the step's
// collective DAG, per-phase load imbalance across ranks, a rank-to-rank
// communication matrix, and an attribution report splitting wall time into
// compute / comm / wait-at-collective / imbalance / recovery buckets that
// sum to the measured wall by construction.
//
// The samples it reads are the run result's own [rank][step] timing table
// (pmd.Result.Timings) — the table the printed report, the obs counters
// and the figures read too, so every view agrees because there is one
// record. The only thing a run records besides it is the Timeline: the
// collective counts and byte matrices the timing table cannot reproduce.
// The profile serializes as a versioned JSON document (Schema
// "repro/perf/v1") that the run manifest, the obs server's /profilez view
// and the serve tier's /v1/jobs/<id>/profile endpoint all share.
package perf

import (
	"sync"

	"repro/internal/trace"
)

// Schema identifies the profile JSON document version. Bump on any
// incompatible change to the Profile shape.
const Schema = "repro/perf/v1"

// Phase indices of the paper's classic/PME step split. StepTiming holds
// exactly these; a third phase would be a schema change.
const (
	PhaseClassic = 0
	PhasePME     = 1
	NumPhases    = 2
)

// PhaseNames maps phase indices to their exposition names.
var PhaseNames = [NumPhases]string{"classic", "pme"}

// Sample is one rank's measured decomposition of one phase of one step
// (the engine's PhaseSample is this type).
type Sample struct {
	Comp  float64
	Comm  float64
	Sync  float64
	Wall  float64 // elapsed virtual time of the phase
	Bytes int64   // bytes sent during the phase
}

// Add accumulates o into s.
func (s *Sample) Add(o Sample) {
	s.Comp += o.Comp
	s.Comm += o.Comm
	s.Sync += o.Sync
	s.Wall += o.Wall
	s.Bytes += o.Bytes
}

// StepTiming is one rank's classic/PME split of one step (§3.2) — a row
// element of the timing table Analyze reads (the engine's StepTiming is
// this type).
type StepTiming struct {
	Classic Sample
	PME     Sample
}

// CollectiveStat aggregates one collective kind over a run.
type CollectiveStat struct {
	Kind  string `json:"kind"`
	Calls int64  `json:"calls"`
	Bytes int64  `json:"bytes"`
}

// NamedMatrix is a rank-to-rank byte matrix for one named exchange
// pattern (halo, migration, grid assembly, ...), aggregated over the run.
type NamedMatrix struct {
	Name  string    `json:"name"`
	Calls int64     `json:"calls"`
	Bytes [][]int64 `json:"bytes"`
}

// Timeline is the communication log of one run: per-kind collective
// counts and the rank-to-rank byte matrices, recorded once per collective
// invocation (from rank 0's view — collectives are symmetric). It is an
// mpi.Observer that ignores intervals: it holds no time samples; those
// are the run result's timing table.
type Timeline struct {
	mu    sync.Mutex
	colls map[string]*CollectiveStat
	mat   [][]int64
	named map[string]*NamedMatrix
}

// NewTimeline returns an empty communication log. Its matrices take the
// world size of the first call it records.
func NewTimeline() *Timeline {
	return &Timeline{colls: map[string]*CollectiveStat{}, named: map[string]*NamedMatrix{}}
}

// newMatrix returns a zeroed ranks × ranks byte matrix.
func newMatrix(ranks int) [][]int64 {
	m := make([][]int64, ranks)
	for r := range m {
		m[r] = make([]int64, ranks)
	}
	return m
}

// Interval ignores an interval: the log keeps no time samples.
func (tl *Timeline) Interval(trace.Event) {}

// Collective records one invocation of a collective: a call and its bytes
// under c.Kind, its rank-to-rank bytes into the run's matrix and, when
// the exchange is named (halo, migration), into the pattern's own matrix.
// A reduction's payload counts as its bytes and moves no pair.
func (tl *Timeline) Collective(c trace.Call) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if tl.mat == nil {
		tl.mat = newMatrix(c.Ranks)
	}
	var named [][]int64
	if c.Name != "" {
		nm := tl.named[c.Name]
		if nm == nil {
			nm = &NamedMatrix{Name: c.Name, Bytes: newMatrix(c.Ranks)}
			tl.named[c.Name] = nm
		}
		nm.Calls++
		named = nm.Bytes
	}
	total := int64(c.Bytes)
	add := func(src, dst, bytes int) {
		tl.mat[src][dst] += int64(bytes)
		total += int64(bytes)
		if named != nil {
			named[src][dst] += int64(bytes)
		}
	}
	switch {
	case c.Pairs != nil:
		c.Pairs.Each(add)
	case c.Sizes != nil:
		for src, row := range c.Sizes {
			for dst, b := range row {
				if b > 0 {
					add(src, dst, b)
				}
			}
		}
	case c.Blocks != nil:
		for src, b := range c.Blocks {
			for dst := 0; dst < c.Ranks && b > 0; dst++ {
				if dst != src {
					add(src, dst, b)
				}
			}
		}
	}
	stat := tl.colls[c.Kind]
	if stat == nil {
		stat = &CollectiveStat{Kind: c.Kind}
		tl.colls[c.Kind] = stat
	}
	stat.Calls++
	stat.Bytes += total
}
