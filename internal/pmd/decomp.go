package pmd

import (
	"fmt"

	"repro/internal/md"
)

// DecompKind selects how the parallel engine distributes the system over
// the simulated ranks. The replicated-data decomposition is the paper's
// CHARMM configuration; the spatial domain decomposition is the
// GROMACS/NAMD-style alternative the scaling study uses to probe whether
// the paper's 8-processor ceiling is intrinsic to the workload or to the
// decomposition.
type DecompKind int

const (
	// DecompReplicated is CHARMM's replicated-data atom decomposition with
	// a slab-decomposed PME (every rank holds a full replica; the FFT is
	// split into whole x-slabs). It cannot tile more ranks than the mesh
	// has slabs.
	DecompReplicated DecompKind = iota
	// DecompDomain is the spatial decomposition: a 3-D domain grid with
	// per-domain cell lists, half-shell halo exchange, owner-computes
	// bonded terms, atom migration at neighbour-list rebuilds, and a 2-D
	// pencil-decomposed PME reciprocal path.
	DecompDomain
)

func (k DecompKind) String() string {
	if k == DecompDomain {
		return "domain"
	}
	return "replicated"
}

// ParseDecomp parses a -decomp flag value. The empty string selects the
// paper's replicated-data decomposition.
func ParseDecomp(s string) (DecompKind, error) {
	switch s {
	case "", "replicated":
		return DecompReplicated, nil
	case "domain":
		return DecompDomain, nil
	}
	return 0, fmt.Errorf("pmd: unknown decomposition %q (want replicated or domain)", s)
}

// DecompError reports a rank count the selected decomposition cannot
// tile. Constraint names the violated geometric constraint so the cmd
// tier can print an actionable one-liner instead of a panic trace.
type DecompError struct {
	Decomp     DecompKind
	Ranks      int
	Constraint string
}

func (e *DecompError) Error() string {
	return fmt.Sprintf("pmd: %s decomposition cannot tile %d ranks: %s", e.Decomp, e.Ranks, e.Constraint)
}

// ValidateDecomp checks that the decomposition can tile p ranks over the
// given PME mesh. It returns a *DecompError naming the constraint when it
// cannot.
//
// Any decomposition: the mesh must be one the engine's PME can transform —
// every dimension at least 2·Order points, and K1 even for the real
// half-spectrum transform (there is no complex fallback).
//
// Replicated/slab: the PME forward transform assigns whole x-slabs, so
// more ranks than K1 slabs leaves ranks with no slab at all (CHARMM's
// implicit assumption, previously an unchecked silent idle). Ranks beyond
// K2 merely idle through the spectrum stage — those are reported by the
// repro_pme_idle_ranks gauge, not rejected, because the paper's own
// configurations run there.
//
// Domain/pencil: p factors into a p2×p3 pencil grid (p2 the largest
// divisor of p not exceeding √p). Stage-1 pencils split (y,z) into
// p2×p3 blocks and the two transposes re-split the half-spectrum x axis
// over p2 and the y axis over p3, so p2 ≤ min(K2, K1/2+1) and
// p3 ≤ min(K3, K2) must hold.
func ValidateDecomp(kind DecompKind, p int, pme md.PMEConfig) error {
	if p < 1 {
		return &DecompError{Decomp: kind, Ranks: p, Constraint: "need at least one rank"}
	}
	if lim := 2 * pme.Order; min(pme.K1, pme.K2, pme.K3) < lim {
		return &DecompError{Decomp: kind, Ranks: p, Constraint: fmt.Sprintf(
			"PME mesh %d×%d×%d has a dimension below 2·order = %d points", pme.K1, pme.K2, pme.K3, lim)}
	}
	if pme.K1%2 != 0 {
		return &DecompError{Decomp: kind, Ranks: p, Constraint: fmt.Sprintf(
			"PME mesh K1=%d is odd; the half-spectrum transform needs an even K1", pme.K1)}
	}
	switch kind {
	case DecompReplicated:
		if p > pme.K1 {
			return &DecompError{Decomp: kind, Ranks: p, Constraint: fmt.Sprintf(
				"slab PME assigns whole x-slabs; ranks must not exceed the K1=%d mesh slabs", pme.K1)}
		}
	case DecompDomain:
		p2, p3 := pencilFactors(p)
		h1 := pme.K1/2 + 1
		if lim := min(pme.K2, h1); p2 > lim {
			return &DecompError{Decomp: kind, Ranks: p, Constraint: fmt.Sprintf(
				"pencil grid %d×%d needs p2 ≤ min(K2=%d, K1/2+1=%d)", p2, p3, pme.K2, h1)}
		}
		if lim := min(pme.K3, pme.K2); p3 > lim {
			return &DecompError{Decomp: kind, Ranks: p, Constraint: fmt.Sprintf(
				"pencil grid %d×%d needs p3 ≤ min(K3=%d, K2=%d)", p2, p3, pme.K3, pme.K2)}
		}
	default:
		return &DecompError{Decomp: kind, Ranks: p, Constraint: "unknown decomposition"}
	}
	return nil
}

// pencilFactors splits p into the most nearly square p2×p3 grid with
// p2 ≤ p3: p2 is the largest divisor of p not exceeding √p. The split is
// a pure function of p, keeping the decomposition fixed by problem + rank
// count (the determinism contract).
func pencilFactors(p int) (p2, p3 int) {
	p2 = 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			p2 = d
		}
	}
	return p2, p / p2
}

// factor3 splits p into a near-cubic dx×dy×dz domain grid (dx ≥ dy ≥ dz),
// minimizing the total inter-domain surface dx·dy + dy·dz + dz·dx. Like
// pencilFactors it is a pure function of p.
func factor3(p int) (dx, dy, dz int) {
	dx, dy, dz = p, 1, 1
	best := p + p + 1 // surface of the p×1×1 grid
	for c := 1; c*c*c <= p; c++ {
		if p%c != 0 {
			continue
		}
		q := p / c
		for b := c; b*b <= q; b++ {
			if q%b != 0 {
				continue
			}
			a := q / b
			if s := a*b + b*c + c*a; s < best {
				best = s
				dx, dy, dz = a, b, c
			}
		}
	}
	return dx, dy, dz
}
