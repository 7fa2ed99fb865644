package ff

import (
	"fmt"
	"math"

	"repro/internal/space"
	"repro/internal/topol"
	"repro/internal/units"
	"repro/internal/vec"
	"repro/internal/work"
)

// ElecMode selects the electrostatic truncation scheme.
type ElecMode int

const (
	// ElecShift is CHARMM's SHIFT function: E = qq/r · (1 − (r/rc)²)²,
	// zero at the cutoff — the paper's classic (non-PME) mode.
	ElecShift ElecMode = iota
	// ElecEwaldDirect is the PME direct-space term qq·erfc(βr)/r; the
	// reciprocal part lives in internal/ewald.
	ElecEwaldDirect
)

// Options configures nonbonded evaluation.
type Options struct {
	CutOn      float64  // LJ switching starts here (Å)
	CutOff     float64  // interactions end here (Å)
	ListCutoff float64  // neighbour-list cutoff (≥ CutOff; the margin is the skin)
	ElecMode   ElecMode //
	Beta       float64  // Ewald splitting parameter (1/Å), ElecEwaldDirect only

	Scale14LJ   float64 // scale factor for 1-4 Lennard-Jones
	Scale14Elec float64 // scale factor for 1-4 electrostatics

	// ExactKernels disables the tabulated nonbonded kernel (and, through
	// md.Engine, the r2c FFT path), restoring the reference exact-math
	// implementations bit for bit. Physics agrees either way to the table's
	// measured accuracy; use this flag to validate or to reproduce
	// pre-table trajectories exactly.
	ExactKernels bool
}

// DefaultOptions matches the paper's setup: shift truncation at 10 Å with
// LJ switching from 8 Å, 12 Å list.
func DefaultOptions() Options {
	return Options{
		CutOn: 8, CutOff: 10, ListCutoff: 12,
		ElecMode: ElecShift, Beta: 0.34,
		Scale14LJ: 1, Scale14Elec: 1,
	}
}

// PMEOptions is DefaultOptions with the electrostatics split for PME.
func PMEOptions() Options {
	o := DefaultOptions()
	o.ElecMode = ElecEwaldDirect
	return o
}

// Energies holds the force-field energy decomposition in kcal/mol.
type Energies struct {
	Bond, Angle, Dihedral, Improper float64
	LJ, Elec                        float64 // from the nonbonded list
	LJ14, Elec14                    float64 // 1-4 terms
}

// Bonded returns the bonded subtotal.
func (e Energies) Bonded() float64 { return e.Bond + e.Angle + e.Dihedral + e.Improper }

// Nonbonded returns the nonbonded subtotal (including 1-4).
func (e Energies) Nonbonded() float64 { return e.LJ + e.Elec + e.LJ14 + e.Elec14 }

// Total returns the full force-field energy (excluding any PME reciprocal
// contribution, which internal/ewald owns).
func (e Energies) Total() float64 { return e.Bonded() + e.Nonbonded() }

// Add accumulates o into e.
func (e *Energies) Add(o Energies) {
	e.Bond += o.Bond
	e.Angle += o.Angle
	e.Dihedral += o.Dihedral
	e.Improper += o.Improper
	e.LJ += o.LJ
	e.Elec += o.Elec
	e.LJ14 += o.LJ14
	e.Elec14 += o.Elec14
}

// ForceField evaluates energies and forces for one topology. Parameters are
// resolved once at construction. A ForceField is immutable after New and
// safe for concurrent use with distinct output buffers.
type ForceField struct {
	Sys  *topol.System
	Opts Options

	bonds  []BondParam
	angles []AngleParam
	dihs   []DihedralParam
	imprs  []ImproperParam

	charge   []float64
	eps      []float64
	rminHalf []float64

	// The pairs filterPairs drops from the nonbonded list, in CSR layout:
	// atom i's excluded (1-2, 1-3) and 1-4 partners j > i, ascending, are
	// skipList[skipIdx[i]:skipIdx[i+1]].
	skipIdx, skipList []int32

	// Tabulated-kernel data, nil/empty when Opts.ExactKernels is set.
	table  *InteractionTable
	typ    []int32 // atom → type index
	ntypes int
	ljA    []float64 // eps·rmin¹² per type pair, ntypes×ntypes
	ljB    []float64 // 2·eps·rmin⁶ per type pair
}

// New resolves all parameters for sys.
func New(sys *topol.System, opts Options) *ForceField {
	if opts.CutOff <= 0 || opts.CutOn <= 0 || opts.CutOn >= opts.CutOff {
		panic(fmt.Sprintf("ff: invalid switch region [%g, %g]", opts.CutOn, opts.CutOff))
	}
	if opts.ListCutoff < opts.CutOff {
		panic("ff: list cutoff below interaction cutoff")
	}
	f := &ForceField{Sys: sys, Opts: opts}
	f.bonds = make([]BondParam, len(sys.Bonds))
	for i, b := range sys.Bonds {
		f.bonds[i] = bondParam(sys.Atoms[b[0]].Type, sys.Atoms[b[1]].Type)
	}
	f.angles = make([]AngleParam, len(sys.Angles))
	for i, a := range sys.Angles {
		f.angles[i] = angleParam(sys.Atoms[a[1]].Type, sys.Atoms[a[0]].Type, sys.Atoms[a[2]].Type)
	}
	f.dihs = make([]DihedralParam, len(sys.Dihedrals))
	for i, d := range sys.Dihedrals {
		f.dihs[i] = dihedralParam(sys.Atoms[d[1]].Type, sys.Atoms[d[2]].Type)
	}
	f.imprs = make([]ImproperParam, len(sys.Impropers))
	for i := range sys.Impropers {
		f.imprs[i] = improperParam()
	}
	n := sys.N()
	f.charge = make([]float64, n)
	f.eps = make([]float64, n)
	f.rminHalf = make([]float64, n)
	for i, a := range sys.Atoms {
		f.charge[i] = a.Charge
		t := sys.Types[a.Type]
		f.eps[i] = t.Eps
		f.rminHalf[i] = t.RminHalf
	}
	f.skipIdx, f.skipList = buildSkipList(sys)
	if !opts.ExactKernels {
		f.table = NewInteractionTable(opts, defaultTableIntervals)
		f.ntypes = len(sys.Types)
		f.typ = make([]int32, n)
		for i, a := range sys.Atoms {
			f.typ[i] = int32(a.Type)
		}
		f.ljA = make([]float64, f.ntypes*f.ntypes)
		f.ljB = make([]float64, f.ntypes*f.ntypes)
		for ti := 0; ti < f.ntypes; ti++ {
			for tj := 0; tj < f.ntypes; tj++ {
				eps := math.Sqrt(sys.Types[ti].Eps * sys.Types[tj].Eps)
				rmin := sys.Types[ti].RminHalf + sys.Types[tj].RminHalf
				r3 := rmin * rmin * rmin
				r6 := r3 * r3
				f.ljA[ti*f.ntypes+tj] = eps * r6 * r6
				f.ljB[ti*f.ntypes+tj] = 2 * eps * r6
			}
		}
	}
	return f
}

// Charges returns the per-atom charge array (shared; do not modify).
func (f *ForceField) Charges() []float64 { return f.charge }

// buildSkipList merges each atom's exclusion row with its 1-4 partners into
// one CSR of the partners j > i, ascending, in two counting passes.
func buildSkipList(sys *topol.System) (idx, list []int32) {
	n := sys.N()
	each := func(visit func(i, j int32)) {
		for i := 0; i < n; i++ {
			for _, j := range sys.Excl.Of(i) {
				if int(j) > i {
					visit(int32(i), j)
				}
			}
		}
		for _, p := range sys.Pairs14 {
			if p[0] < p[1] {
				visit(p[0], p[1])
			}
		}
	}
	idx = make([]int32, n+1)
	each(func(i, _ int32) { idx[i+1]++ })
	for i := 0; i < n; i++ {
		idx[i+1] += idx[i]
	}
	// Fill with idx[i] as row i's cursor; the cursors end one row ahead and
	// are shifted back.
	list = make([]int32, idx[n])
	each(func(i, j int32) {
		list[idx[i]] = j
		idx[i]++
	})
	copy(idx[1:], idx)
	idx[0] = 0
	// Insertion sort per row: the exclusions arrive sorted, so only the few
	// 1-4 partners behind them are out of place.
	for i := 0; i < n; i++ {
		row := list[idx[i]:idx[i+1]]
		for a := 1; a < len(row); a++ {
			v := row[a]
			b := a
			for ; b > 0 && row[b-1] > v; b-- {
				row[b] = row[b-1]
			}
			row[b] = v
		}
	}
	return idx, list
}

// BuildPairs constructs the nonbonded neighbour list at the list cutoff,
// with excluded (1-2, 1-3) and 1-4 pairs removed — 1-4 interactions are
// evaluated separately with their scale factors. Each call allocates a
// fresh list; steady-state callers rebuilding every few steps should hold
// a PairLister instead.
func (f *ForceField) BuildPairs(pos []vec.V, w *work.Counters) []space.Pair {
	return f.NewPairLister().Build(pos, w)
}

// filterPairs drops excluded and 1-4 pairs in place. A pair (I < J) can
// only be in I's skip row when J is no larger than the row's last entry,
// which rules out all but the bonded neighbourhood without a scan.
func (f *ForceField) filterPairs(raw []space.Pair) []space.Pair {
	idx, list := f.skipIdx, f.skipList
	n := 0
pairs:
	for _, p := range raw {
		row := list[idx[p.I]:idx[p.I+1]]
		if len(row) > 0 && p.J <= row[len(row)-1] {
			for _, j := range row {
				if j == p.J {
					continue pairs
				}
			}
		}
		raw[n] = p
		n++
	}
	return raw[:n]
}

// PairLister builds neighbour lists repeatedly over one topology without
// steady-state allocation: the cell grid, its occupancy storage and the
// pair buffer are all reused across Build calls. The slice returned by
// Build is valid until the next Build on the same lister.
type PairLister struct {
	f    *ForceField
	cl   *space.CellList
	pair []space.Pair
}

// NewPairLister returns a reusable list builder for this force field.
func (f *ForceField) NewPairLister() *PairLister { return &PairLister{f: f} }

// Build constructs the filtered nonbonded list at pos, charging the
// distance evaluations into w (when non-nil).
func (pl *PairLister) Build(pos []vec.V, w *work.Counters) []space.Pair {
	f := pl.f
	if pl.cl == nil {
		pl.cl = space.NewCellList(f.Sys.Box, f.Opts.ListCutoff, pos)
	} else {
		pl.cl.Rebuild(pos)
	}
	var distEvals int64
	pl.pair = pl.cl.PairsAppend(pos, pl.pair, &distEvals)
	if w != nil {
		w.ListDistEvals += distEvals
	}
	pl.pair = f.filterPairs(pl.pair)
	return pl.pair
}

// elecKernel returns energy and dE/dr for a unit charge product at
// distance r under the configured truncation.
func (f *ForceField) elecKernel(r float64) (e, dedr float64) {
	return elecValue(f.Opts, r)
}

// elecValue is the exact electrostatic kernel as a standalone function, so
// the interaction-table constructor evaluates the same math as the exact
// path.
func elecValue(o Options, r float64) (e, dedr float64) {
	switch o.ElecMode {
	case ElecShift:
		rc := o.CutOff
		if r >= rc {
			return 0, 0
		}
		s := 1 - (r/rc)*(r/rc)
		e = units.CoulombConst * s * s / r
		// d/dr [ (1/r)(1 - r²/rc²)² ] = -1/r² + 3r²/rc⁴ - 2/rc²
		dedr = units.CoulombConst * (-1/(r*r) - 2/(rc*rc) + 3*r*r/(rc*rc*rc*rc))
		return e, dedr
	case ElecEwaldDirect:
		b := o.Beta
		erfc := math.Erfc(b * r)
		e = units.CoulombConst * erfc / r
		dedr = -units.CoulombConst * (erfc/(r*r) + 2*b/math.SqrtPi*math.Exp(-b*b*r*r)/r)
		return e, dedr
	}
	panic("ff: unknown elec mode")
}

// ljKernel returns the raw (unswitched) LJ energy and dE/dr for the pair
// (i, j) at distance r.
func (f *ForceField) ljKernel(i, j int32, r float64) (e, dedr float64) {
	eps := math.Sqrt(f.eps[i] * f.eps[j])
	rmin := f.rminHalf[i] + f.rminHalf[j]
	q := rmin / r
	q2 := q * q
	q6 := q2 * q2 * q2
	q12 := q6 * q6
	e = eps * (q12 - 2*q6)
	dedr = -12 * eps / r * (q12 - q6)
	return e, dedr
}

// switchFn returns the CHARMM switching function S(r) and dS/dr over
// [CutOn, CutOff].
func (f *ForceField) switchFn(r float64) (s, dsdr float64) {
	return switchValue(f.Opts, r)
}

// switchValue is switchFn as a standalone function, shared with the
// interaction-table constructor.
func switchValue(o Options, r float64) (s, dsdr float64) {
	ron, roff := o.CutOn, o.CutOff
	if r <= ron {
		return 1, 0
	}
	if r >= roff {
		return 0, 0
	}
	r2 := r * r
	a := roff*roff - r2
	b := roff*roff + 2*r2 - 3*ron*ron
	d := roff*roff - ron*ron
	d3 := d * d * d
	s = a * a * b / d3
	dsdr = 4 * r * a * (a - b) / d3
	return s, dsdr
}
