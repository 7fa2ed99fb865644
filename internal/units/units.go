// Package units defines the physical constants and unit conventions used
// throughout the MD engine.
//
// The engine works in the AKMA unit system used by CHARMM:
//
//	length   Ångström (Å)
//	energy   kcal/mol
//	mass     atomic mass unit (amu)
//	charge   elementary charge (e)
//	time     AKMA time unit (≈ 48.888 fs), so that the kinetic energy
//	         (1/2) m v² comes out directly in kcal/mol
//
// Simulated wall-clock durations (the performance model) are ordinary
// time.Duration values and have nothing to do with AKMA time.
package units

import "math"

const (
	// CoulombConst is the Coulomb constant in kcal·Å/(mol·e²):
	// E = CoulombConst · q1·q2 / r. This is CHARMM's CCELEC.
	CoulombConst = 332.0716

	// Boltzmann is k_B in kcal/(mol·K).
	Boltzmann = 0.001987191

	// AKMATimeFS is one AKMA time unit expressed in femtoseconds.
	AKMATimeFS = 48.88821

	// DefaultTimestepFS is the MD timestep in femtoseconds used by the
	// paper's measurement runs (standard CHARMM dynamics with SHAKE off).
	DefaultTimestepFS = 1.0
)

// FSToAKMA converts a duration in femtoseconds to AKMA time units.
func FSToAKMA(fs float64) float64 { return fs / AKMATimeFS }

// KineticTemperature returns the instantaneous temperature in Kelvin for a
// system with the given kinetic energy (kcal/mol) and number of degrees of
// freedom.
func KineticTemperature(kinetic float64, dof int) float64 {
	if dof <= 0 {
		return 0
	}
	return 2 * kinetic / (float64(dof) * Boltzmann)
}

// ThermalVelocity returns the standard deviation of one velocity component
// (Å per AKMA time) for mass m (amu) at temperature T (K), i.e. sqrt(kT/m).
func ThermalVelocity(mass, temperature float64) float64 {
	if mass <= 0 {
		return 0
	}
	return math.Sqrt(Boltzmann * temperature / mass)
}
