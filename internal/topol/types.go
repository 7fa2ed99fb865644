// Package topol defines molecular topology — atoms, bonded terms, exclusion
// lists — and builds the synthetic molecular systems used by the study,
// foremost a 3552-atom myoglobin-like system matching the paper's workload
// (153-residue α-class protein + CO + 337 waters + sulfate in the 80×36×48 Å
// periodic cell of the PME charge mesh).
package topol

import (
	"fmt"
	"sort"

	"repro/internal/space"
	"repro/internal/vec"
)

// AtomType holds the per-type force-field constants.
type AtomType struct {
	Name     string
	Mass     float64 // amu
	Eps      float64 // LJ well depth, kcal/mol (positive)
	RminHalf float64 // LJ Rmin/2, Å
}

// Type indices into System.Types. The table is fixed at build time.
const (
	TypeC  = iota // carbonyl / backbone carbon
	TypeCT        // aliphatic carbon
	TypeCM        // carbon monoxide carbon
	TypeN         // backbone nitrogen
	TypeO         // carbonyl oxygen
	TypeOH        // hydroxyl oxygen
	TypeOW        // water oxygen
	TypeOS        // sulfate oxygen
	TypeOM        // carbon monoxide oxygen
	TypeH         // polar hydrogen
	TypeHW        // water hydrogen
	TypeHA        // nonpolar hydrogen
	TypeS         // sulfur
	numTypes
)

// StandardTypes returns the fixed atom-type table shared by all systems
// built by this package. Values are CHARMM22-like.
func StandardTypes() []AtomType {
	t := make([]AtomType, numTypes)
	t[TypeC] = AtomType{"C", 12.011, 0.110, 2.000}
	t[TypeCT] = AtomType{"CT", 12.011, 0.080, 2.060}
	t[TypeCM] = AtomType{"CM", 12.011, 0.110, 2.100}
	t[TypeN] = AtomType{"N", 14.007, 0.200, 1.850}
	t[TypeO] = AtomType{"O", 15.999, 0.120, 1.700}
	t[TypeOH] = AtomType{"OH", 15.999, 0.152, 1.770}
	t[TypeOW] = AtomType{"OW", 15.999, 0.152, 1.768}
	t[TypeOS] = AtomType{"OS", 15.999, 0.120, 1.700}
	t[TypeOM] = AtomType{"OM", 15.999, 0.120, 1.700}
	t[TypeH] = AtomType{"H", 1.008, 0.046, 0.225}
	t[TypeHW] = AtomType{"HW", 1.008, 0.046, 0.225}
	t[TypeHA] = AtomType{"HA", 1.008, 0.022, 1.320}
	t[TypeS] = AtomType{"S", 32.060, 0.450, 2.000}
	return t
}

// Atom is one particle of the system.
type Atom struct {
	Name    string
	Type    int32   // index into System.Types
	Charge  float64 // elementary charges
	Residue int32   // index into System.Residues
}

// Residue is a contiguous range of atoms [First, Last).
type Residue struct {
	Name  string
	First int32
	Last  int32
}

// System is a complete molecular topology with coordinates.
type System struct {
	Box      space.Box
	Types    []AtomType
	Atoms    []Atom
	Pos      []vec.V
	Residues []Residue

	Bonds     [][2]int32
	Angles    [][3]int32
	Dihedrals [][4]int32
	Impropers [][4]int32 // center listed first

	Excl    Exclusions // 1-2 and 1-3 neighbours per atom
	Pairs14 [][2]int32 // atoms at bonded distance exactly 3
}

// N returns the number of atoms.
func (s *System) N() int { return len(s.Atoms) }

// Mass returns the mass of atom i.
func (s *System) Mass(i int) float64 { return s.Types[s.Atoms[i].Type].Mass }

// TotalCharge returns the net charge of the system.
func (s *System) TotalCharge() float64 {
	var q float64
	for _, a := range s.Atoms {
		q += a.Charge
	}
	return q
}

// Validate checks structural invariants and returns the first violation.
func (s *System) Validate() error {
	n := int32(s.N())
	if len(s.Pos) != int(n) {
		return fmt.Errorf("topol: %d atoms but %d positions", n, len(s.Pos))
	}
	for i, a := range s.Atoms {
		if a.Type < 0 || int(a.Type) >= len(s.Types) {
			return fmt.Errorf("topol: atom %d has invalid type %d", i, a.Type)
		}
		if a.Residue < 0 || int(a.Residue) >= len(s.Residues) {
			return fmt.Errorf("topol: atom %d has invalid residue %d", i, a.Residue)
		}
	}
	check := func(kind string, idx []int32) error {
		for _, v := range idx {
			if v < 0 || v >= n {
				return fmt.Errorf("topol: %s references atom %d outside [0,%d)", kind, v, n)
			}
		}
		return nil
	}
	for _, b := range s.Bonds {
		if err := check("bond", b[:]); err != nil {
			return err
		}
		if b[0] == b[1] {
			return fmt.Errorf("topol: self bond on atom %d", b[0])
		}
	}
	for _, a := range s.Angles {
		if err := check("angle", a[:]); err != nil {
			return err
		}
	}
	for _, d := range s.Dihedrals {
		if err := check("dihedral", d[:]); err != nil {
			return err
		}
	}
	for _, im := range s.Impropers {
		if err := check("improper", im[:]); err != nil {
			return err
		}
	}
	for _, p := range s.Pairs14 {
		if err := check("1-4 pair", p[:]); err != nil {
			return err
		}
	}
	return nil
}

// Exclusions stores, for each atom, the sorted set of atoms whose nonbonded
// interaction is excluded (bonded 1-2 and 1-3 neighbours), in CSR layout.
type Exclusions struct {
	idx  []int32 // len n+1
	list []int32
}

// NewExclusions builds the structure from per-atom neighbour sets.
func NewExclusions(sets [][]int32) Exclusions {
	var e Exclusions
	e.idx = make([]int32, len(sets)+1)
	for i, s := range sets {
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		// Deduplicate.
		out := s[:0]
		for j, v := range s {
			if j == 0 || v != out[len(out)-1] {
				out = append(out, v)
			}
		}
		e.idx[i+1] = e.idx[i] + int32(len(out))
		e.list = append(e.list, out...)
	}
	return e
}

// Of returns the sorted excluded-atom list of atom i.
func (e Exclusions) Of(i int) []int32 {
	return e.list[e.idx[i]:e.idx[i+1]]
}
