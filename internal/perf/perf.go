// Package perf is the performance-attribution subsystem: a bounded,
// allocation-disciplined per-step timeline of rank × phase samples plus
// collective byte matrices, and an analyzer that explains a run's wall
// clock the way the source paper explains CHARMM's — but automatically.
// Where the paper decomposes wall time into phases by hand (§3.2), the
// analyzer computes the critical path through the step's collective DAG,
// per-phase load imbalance across ranks, a rank-to-rank communication
// matrix, and an attribution report splitting wall time into compute /
// comm / wait-at-collective / imbalance / recovery buckets that sum to
// the measured wall by construction.
//
// The timeline is fed from the same PhaseSample hooks the printed report
// uses, so the profile and the paper tables always agree; the profile
// serializes as a versioned JSON document (Schema "repro/perf/v1") that
// the run manifest, the obs server's /profilez view and the serve tier's
// /v1/jobs/<id>/profile endpoint all share.
package perf

import (
	"fmt"
	"sync"
)

// Schema identifies the profile JSON document version. Bump on any
// incompatible change to the Profile shape.
const Schema = "repro/perf/v1"

// Phase indices of the paper's classic/PME step split. The timeline is
// sized for exactly these; a third phase would be a schema change.
const (
	PhaseClassic = 0
	PhasePME     = 1
	NumPhases    = 2
)

// PhaseNames maps phase indices to their exposition names.
var PhaseNames = [NumPhases]string{"classic", "pme"}

// maxBoundedSteps caps the per-step sample store regardless of the
// configured step count: beyond it, samples fold into per-rank overflow
// totals and the profile reports how many were truncated. At the cap the
// store is the same order of memory as the engine's own per-step timing
// table, so the bound exists to keep pathological step counts from
// turning the profiler into the biggest allocation in the process.
const maxBoundedSteps = 8192

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

// stepCell holds one step's samples for every phase.
type stepCell [NumPhases]Sample

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

// Timeline is the bounded per-step sample store one run feeds. Per-rank
// sample rows are preallocated at construction and written lock-free —
// each rank writes only its own row, the same discipline the engine's
// timing table uses — while the shared collective aggregates take a
// mutex (collectives are recorded once per call, not once per rank).
//
// Recording a step that was already recorded overwrites the cell: a
// resilient rewind replays its steps and the final profile must describe
// the completed trajectory, not the sum of attempts. Steps at or beyond
// the bound fold into per-rank overflow totals and count as truncated.
type Timeline struct {
	ranks  int
	bound  int
	cells  [][]stepCell
	hi     []int // per-rank: highest recorded step + 1 (bounded part)
	spill  []stepCell
	spillN []int64

	mu    sync.Mutex
	colls map[string]*CollectiveStat
	mat   [][]int64
	named map[string]*NamedMatrix
}

// NewTimeline sizes a timeline for a run of the given rank and step
// counts. All per-step storage is allocated here; Record never
// allocates.
func NewTimeline(ranks, steps int) *Timeline {
	if ranks < 1 {
		panic(fmt.Sprintf("perf: non-positive rank count %d", ranks))
	}
	if steps < 0 {
		steps = 0
	}
	bound := steps
	if bound > maxBoundedSteps {
		bound = maxBoundedSteps
	}
	tl := &Timeline{
		ranks:  ranks,
		bound:  bound,
		cells:  make([][]stepCell, ranks),
		hi:     make([]int, ranks),
		spill:  make([]stepCell, ranks),
		spillN: make([]int64, ranks),
		colls:  map[string]*CollectiveStat{},
		named:  map[string]*NamedMatrix{},
		mat:    make([][]int64, ranks),
	}
	for r := 0; r < ranks; r++ {
		tl.cells[r] = make([]stepCell, bound)
		tl.mat[r] = make([]int64, ranks)
	}
	return tl
}

// Record stores one rank's sample for one phase of one step. Safe to
// call concurrently from different ranks; a rank must not race itself.
func (tl *Timeline) Record(rank, step, phase int, s Sample) {
	if rank < 0 || rank >= tl.ranks || step < 0 || phase < 0 || phase >= NumPhases {
		return
	}
	if step >= tl.bound {
		// Overflow: fold into the per-rank spill total. Overwrite
		// semantics are lost out here — rewound steps double-count —
		// which is why the profile surfaces the truncation count.
		tl.spill[rank][phase].Add(s)
		tl.spillN[rank]++
		return
	}
	tl.cells[rank][step][phase] = s
	if step+1 > tl.hi[rank] {
		tl.hi[rank] = step + 1
	}
}

// Collective records one invocation of a collective with its aggregate
// payload (bytes moved by the slowest participant, or the reduction
// size). Call once per collective, not once per rank.
func (tl *Timeline) Collective(kind string, bytes int64) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.collLocked(kind, 1, bytes)
}

func (tl *Timeline) collLocked(kind string, calls, bytes int64) {
	c := tl.colls[kind]
	if c == nil {
		c = &CollectiveStat{Kind: kind}
		tl.colls[kind] = c
	}
	c.Calls += calls
	c.Bytes += bytes
}

// Matrix records one personalized all-to-all (sizes[src][dst] bytes)
// into the run's aggregate rank-to-rank communication matrix. Call once
// per collective invocation.
func (tl *Timeline) Matrix(kind string, sizes [][]int) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var total int64
	for src := 0; src < len(sizes) && src < tl.ranks; src++ {
		row := sizes[src]
		for dst := 0; dst < len(row) && dst < tl.ranks; dst++ {
			if b := row[dst]; b > 0 {
				tl.mat[src][dst] += int64(b)
				total += int64(b)
			}
		}
	}
	tl.collLocked(kind, 1, total)
}

// Blocks records one all-gather (blocks[src] bytes broadcast by each
// rank to every other) into the aggregate matrix.
func (tl *Timeline) Blocks(kind string, blocks []int) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var total int64
	for src := 0; src < len(blocks) && src < tl.ranks; src++ {
		b := int64(blocks[src])
		if b <= 0 {
			continue
		}
		for dst := 0; dst < tl.ranks; dst++ {
			if dst != src {
				tl.mat[src][dst] += b
				total += b
			}
		}
	}
	tl.collLocked(kind, 1, total)
}

// NamedMatrix additionally aggregates sizes under a decomposition-level
// name (halo, migration) so the profile can attribute bytes to the
// exchange pattern, not just the transport collective that carried it.
func (tl *Timeline) NamedMatrix(name string, sizes [][]int) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	nm := tl.named[name]
	if nm == nil {
		nm = &NamedMatrix{Name: name, Bytes: make([][]int64, tl.ranks)}
		for r := 0; r < tl.ranks; r++ {
			nm.Bytes[r] = make([]int64, tl.ranks)
		}
		tl.named[name] = nm
	}
	nm.Calls++
	for src := 0; src < len(sizes) && src < tl.ranks; src++ {
		row := sizes[src]
		for dst := 0; dst < len(row) && dst < tl.ranks; dst++ {
			if b := row[dst]; b > 0 {
				nm.Bytes[src][dst] += int64(b)
			}
		}
	}
}

// steps returns the number of bounded steps any rank recorded.
func (tl *Timeline) steps() int {
	max := 0
	for _, h := range tl.hi {
		if h > max {
			max = h
		}
	}
	return max
}

// truncated returns the total samples folded past the bound.
func (tl *Timeline) truncated() int64 {
	var n int64
	for _, v := range tl.spillN {
		n += v
	}
	return n
}
