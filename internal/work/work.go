// Package work defines the operation counters that the MD engine records
// while it computes. The discrete-event performance model converts these
// counts into virtual CPU time on the modelled 1 GHz Pentium III (see
// internal/cluster); keeping the counters in one small package lets every
// compute kernel report work without depending on the machine model.
package work

// Counters tallies the dominant operations of one compute phase. All fields
// are simple counts of kernel-level operations actually executed.
type Counters struct {
	BondTerms     int64 // harmonic bond evaluations
	AngleTerms    int64 // angle evaluations
	DihedralTerms int64 // proper + improper torsion evaluations
	PairEvals     int64 // nonbonded pair interactions computed
	ListDistEvals int64 // distance evaluations during list building
	GridCharges   int64 // PME charge-spread / force-interpolate point ops
	FFTOps        int64 // FFT butterfly flops (analytic count)
	RecipPoints   int64 // reciprocal-space grid points convolved
	Integrate     int64 // per-atom integrator updates
	Other         int64 // miscellaneous per-atom passes (scaling, copies)
}

// IsZero reports whether every counter is zero.
func (c Counters) IsZero() bool {
	return c == Counters{}
}
