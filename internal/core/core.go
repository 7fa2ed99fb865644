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
	"repro/internal/md"
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
	// Workers sizes the host worker pool (0 = one per host CPU, 1 =
	// serial). Figure output is identical across settings.
	Workers int
	// KernelWorkers spreads the physics kernels (pair loop, FFT, PME
	// spread/interpolate) over host cores. 0 keeps the legacy serial
	// kernels; any value ≥ 1 uses the pooled deterministic reduction, so
	// figure output is identical for every KernelWorkers ≥ 1.
	KernelWorkers int
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
	cfg.MD.KernelWorkers = o.KernelWorkers
	cfg.Obs = o.Obs
	cfg.Decomp = o.Decomp
	return &Study{Suite: figures.NewSuite(cfg)}
}

// System returns the molecular workload.
func (s *Study) System() *topol.System { return s.Suite.System() }

// Stats returns the suite's run-cache and physics-tape counters.
func (s *Study) Stats() figures.RunStats { return s.Suite.Stats() }

// FigureIDs lists the reproducible experiment identifiers.
func FigureIDs() []string {
	ids := []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "factorial", "effects", "ablation", "scalelimit", "ceiling", "recovery", "attribution"}
	sort.Strings(ids)
	return ids
}

// figure is one experiment as a Study runs it: the cells it needs, in
// request order, and the rendering of their results.
type figure struct {
	cells  []figures.CellKey
	render func(w io.Writer, format Format, results []*pmd.Result) error
}

// planned adapts a figure's plan and its two renderers.
func planned[R any](p figures.Plan[R], text, csv func(io.Writer, R) error) figure {
	return figure{cells: p.Cells, render: func(w io.Writer, format Format, results []*pmd.Result) error {
		rows, err := p.Fold(results)
		if err != nil {
			return err
		}
		if format == FormatCSV {
			return csv(w, rows)
		}
		return text(w, rows)
	}}
}

// diagram adapts a figure that has no cells and one rendering.
func diagram(render func(io.Writer) error) figure {
	return figure{render: func(w io.Writer, _ Format, _ []*pmd.Result) error { return render(w) }}
}

// figure looks an experiment up by id.
func (s *Study) figure(id string) (figure, error) {
	fs := s.Suite
	switch id {
	case "1":
		return diagram(figures.RenderFig1), nil
	case "2":
		return diagram(figures.RenderFig2), nil
	case "3":
		return planned(fs.Fig3Plan(), figures.RenderFig3, figures.CSVFig3), nil
	case "4":
		return planned(fs.Fig4Plan(), figures.RenderFig4, figures.CSVFig4), nil
	case "5":
		return planned(fs.Fig56Plan(), figures.RenderFig5, figures.CSVFig56), nil
	case "6":
		return planned(fs.Fig56Plan(), figures.RenderFig6, figures.CSVFig56), nil
	case "7":
		return planned(fs.Fig7Plan(), figures.RenderFig7, figures.CSVFig7), nil
	case "8":
		return planned(fs.Fig8Plan(), figures.RenderFig8, figures.CSVFig8), nil
	case "9":
		return planned(fs.Fig9Plan(), figures.RenderFig9, figures.CSVFig9), nil
	case "factorial":
		return planned(fs.FactorialPlan(), figures.RenderFactorial, figures.CSVFactorial), nil
	case "effects":
		return planned(fs.EffectsPlan(), figures.RenderEffects, figures.CSVEffects), nil
	case "ablation":
		return planned(fs.AblationPlan(), figures.RenderAblation, figures.CSVAblation), nil
	case "scalelimit":
		return planned(fs.ScaleLimitPlan(), figures.RenderScaleLimit, figures.CSVScaleLimit), nil
	case "ceiling":
		return planned(fs.CeilingPlan(), figures.RenderCeiling, figures.CSVCeiling), nil
	case "recovery":
		return planned(fs.RecoveryPlan(), figures.RenderRecovery, figures.CSVRecovery), nil
	case "attribution":
		return planned(fs.AttributionPlan(), figures.RenderAttribution, figures.CSVAttribution), nil
	}
	return figure{}, fmt.Errorf("core: unknown figure %q (known: %v)", id, FigureIDs())
}

// Figure regenerates one paper figure (or the factorial table) and writes
// it in the requested format. The figure's cells run as one batch.
func (s *Study) Figure(id string, w io.Writer, format Format) error {
	fig, err := s.figure(id)
	if err != nil {
		return err
	}
	results, err := s.Suite.RunCells(fig.cells)
	if err != nil {
		return err
	}
	return fig.render(w, format, results)
}

// All regenerates every paper figure in text form, separated by blank
// lines. The ceiling, recovery and attribution studies are not part of
// the paper and sweep to hundreds of ranks, so they only run when
// requested by id. The figures' cell lists, concatenated in figure order,
// run as one batch — the records of a late figure overlap an early one's —
// and each figure renders from its own stretch of the results.
func (s *Study) All(w io.Writer) error {
	var figs []figure
	var cells []figures.CellKey
	for _, id := range []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "factorial", "effects", "ablation", "scalelimit"} {
		fig, err := s.figure(id)
		if err != nil {
			return err
		}
		figs = append(figs, fig)
		cells = append(cells, fig.cells...)
	}
	results, err := s.Suite.RunCells(cells)
	if err != nil {
		return err
	}
	for _, fig := range figs {
		n := len(fig.cells)
		if err := fig.render(w, FormatText, results[:n]); err != nil {
			return err
		}
		results = results[n:]
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// RunSequential runs the sequential engine on the study's workload for the
// given number of steps and returns the per-step energy reports — the
// baseline the parallel engine is validated against.
func (s *Study) RunSequential(steps int) []md.EnergyReport {
	cfg := s.Suite.Cfg.MD
	e := md.NewEngine(s.Suite.System(), cfg)
	return e.Run(steps, nil, nil)
}
