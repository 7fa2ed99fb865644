// Package core is the façade of the reproduction library: it wires the
// synthetic CHARMM-like workload, the simulated PC-cluster platform and the
// figure generators into one entry point.
//
// Typical use:
//
//	study := core.NewStudy(core.Options{})
//	err := study.Figure("3", os.Stdout, core.FormatText)
//
// or run everything:
//
//	err := study.All(os.Stdout)
package core

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/pmd"
	"repro/internal/topol"
)

// Format selects the output rendering.
type Format int

const (
	// FormatText renders aligned tables with ASCII charts.
	FormatText Format = iota
	// FormatCSV renders machine-readable CSV.
	FormatCSV
)

// Options tunes a Study; the zero value reproduces the paper's protocol
// (10 MD steps of the 3552-atom system over p ∈ {1, 2, 4, 8}).
type Options struct {
	// Quick switches to the reduced test protocol (2 steps, p ≤ 4).
	Quick bool
	// Steps overrides the number of measured MD steps when > 0.
	Steps int
	// Procs overrides the processor counts when non-empty.
	Procs []int
	// SystemSeed/ClusterSeed select the deterministic random streams.
	SystemSeed  uint64
	ClusterSeed uint64
	// Workers bounds the cells in flight and the kernel workers of the
	// engine that evaluates the physics (0 = one per host CPU, 1 =
	// serial). It is the study's one host-concurrency setting; figure
	// output is identical across settings.
	Workers int
	// Obs, when non-nil, receives the suite's cache/tape counters
	// (repro_figures_*). Metrics never alter figure output.
	Obs *obs.Registry
	// Decomp selects the decomposition for the paper figures (zero value:
	// replicated data, the strategy the paper measures). The ceiling
	// figure sweeps both regardless.
	Decomp pmd.DecompKind
}

// Study owns a cached experiment suite.
type Study struct {
	Suite *figures.Suite
}

// NewStudy builds a study (and its 3552-atom molecular system) once.
func NewStudy(o Options) *Study {
	cfg := figures.Default()
	if o.Quick {
		cfg = figures.Quick()
	}
	if o.Steps > 0 {
		cfg.Steps = o.Steps
	}
	if len(o.Procs) > 0 {
		cfg.Procs = o.Procs
	}
	if o.SystemSeed != 0 {
		cfg.SystemSeed = o.SystemSeed
	}
	if o.ClusterSeed != 0 {
		cfg.ClusterSeed = o.ClusterSeed
	}
	cfg.Workers = o.Workers
	cfg.Obs = o.Obs
	cfg.Decomp = o.Decomp
	return &Study{Suite: figures.NewSuite(cfg)}
}

// System returns the molecular workload.
func (s *Study) System() *topol.System { return s.Suite.System() }

// Stats returns the suite's run-cache and physics-tape counters.
func (s *Study) Stats() figures.RunStats { return s.Suite.Stats() }

// FigureIDs lists the reproducible experiment identifiers, sorted.
func FigureIDs() []string {
	var ids []string
	for _, fig := range figures.Registry() {
		ids = append(ids, fig.ID)
	}
	sort.Strings(ids)
	return ids
}

// Figure regenerates one paper figure (or the factorial table) and writes
// it in the requested format. The figure's cells run as one batch.
func (s *Study) Figure(id string, w io.Writer, format Format) error {
	fig, ok := figures.Lookup(id)
	if !ok {
		return fmt.Errorf("core: unknown figure %q (known: %v)", id, FigureIDs())
	}
	return s.write(w, format, "", fig)
}

// All regenerates every paper figure in text form, each followed by a
// blank line. The ceiling, recovery and attribution studies are not part
// of the paper and sweep to hundreds of ranks, so they only run when
// requested by id. The figures' cells run as one batch.
func (s *Study) All(w io.Writer) error {
	var paper []figures.Figure
	for _, fig := range figures.Registry() {
		if fig.Paper {
			paper = append(paper, fig)
		}
	}
	return s.write(w, FormatText, "\n", paper...)
}

// write runs the figures' cells as one batch and renders each figure from
// its own rows, followed by sep.
func (s *Study) write(w io.Writer, format Format, sep string, figs ...figures.Figure) error {
	rows, err := s.Suite.Rows(figs...)
	if err != nil {
		return err
	}
	for i, fig := range figs {
		if err := s.Suite.Render(w, fig, rows[i], format == FormatCSV); err != nil {
			return err
		}
		if _, err := io.WriteString(w, sep); err != nil {
			return err
		}
	}
	return nil
}
