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
	"fmt"
	"sync"
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
// invocation (from rank 0's view — collectives are symmetric). It holds no
// time samples; those are the run result's timing table.
type Timeline struct {
	mu    sync.Mutex
	colls map[string]*CollectiveStat
	mat   [][]int64
	named map[string]*NamedMatrix
}

// NewTimeline returns an empty communication log for a run of the given
// rank count.
func NewTimeline(ranks int) *Timeline {
	if ranks < 1 {
		panic(fmt.Sprintf("perf: non-positive rank count %d", ranks))
	}
	return &Timeline{
		colls: map[string]*CollectiveStat{},
		named: map[string]*NamedMatrix{},
		mat:   newMatrix(ranks),
	}
}

// newMatrix returns a zeroed ranks × ranks byte matrix.
func newMatrix(ranks int) [][]int64 {
	m := make([][]int64, ranks)
	for r := range m {
		m[r] = make([]int64, ranks)
	}
	return m
}

// addSizes adds the positive entries of sizes[src][dst] that fall inside m
// to it and returns their sum.
func addSizes(m [][]int64, sizes [][]int) (total int64) {
	for src := 0; src < len(sizes) && src < len(m); src++ {
		row := sizes[src]
		for dst := 0; dst < len(row) && dst < len(m); dst++ {
			if b := row[dst]; b > 0 {
				m[src][dst] += int64(b)
				total += int64(b)
			}
		}
	}
	return total
}

// Collective records one invocation of a collective with its aggregate
// payload (bytes moved by the slowest participant, or the reduction
// size). Call once per collective, not once per rank.
func (tl *Timeline) Collective(kind string, bytes int64) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.collLocked(kind, bytes)
}

func (tl *Timeline) collLocked(kind string, bytes int64) {
	c := tl.colls[kind]
	if c == nil {
		c = &CollectiveStat{Kind: kind}
		tl.colls[kind] = c
	}
	c.Calls++
	c.Bytes += bytes
}

// Matrix records one personalized all-to-all (sizes[src][dst] bytes)
// into the run's aggregate rank-to-rank communication matrix. Call once
// per collective invocation.
func (tl *Timeline) Matrix(kind string, sizes [][]int) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.collLocked(kind, addSizes(tl.mat, sizes))
}

// Blocks records one all-gather (blocks[src] bytes broadcast by each
// rank to every other) into the aggregate matrix.
func (tl *Timeline) Blocks(kind string, blocks []int) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var total int64
	for src := 0; src < len(blocks) && src < len(tl.mat); src++ {
		b := int64(blocks[src])
		if b <= 0 {
			continue
		}
		for dst := range tl.mat {
			if dst != src {
				tl.mat[src][dst] += b
				total += b
			}
		}
	}
	tl.collLocked(kind, total)
}

// NamedMatrix additionally aggregates sizes under a decomposition-level
// name (halo, migration) so the profile can attribute bytes to the
// exchange pattern, not just the transport collective that carried it.
func (tl *Timeline) NamedMatrix(name string, sizes [][]int) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	nm := tl.named[name]
	if nm == nil {
		nm = &NamedMatrix{Name: name, Bytes: newMatrix(len(tl.mat))}
		tl.named[name] = nm
	}
	nm.Calls++
	addSizes(nm.Bytes, sizes)
}
