package units

import (
	"math"
	"testing"
)

func TestOneAKMAUnit(t *testing.T) {
	if got := FSToAKMA(AKMATimeFS); math.Abs(got-1) > 1e-15 {
		t.Fatalf("FSToAKMA(AKMATimeFS) = %v, want 1", got)
	}
}

func TestKineticTemperature(t *testing.T) {
	// At 300 K, N atoms have <KE> = (3N/2) kT.
	const n = 100
	ke := 1.5 * float64(3*n) / 3 * Boltzmann * 300 // (3N/2) kT with dof = 3N
	got := KineticTemperature(ke, 3*n)
	if math.Abs(got-300) > 1e-9 {
		t.Fatalf("KineticTemperature = %v, want 300", got)
	}
	if KineticTemperature(10, 0) != 0 {
		t.Fatal("zero dof should give temperature 0")
	}
}

func TestThermalVelocity(t *testing.T) {
	// Heavier particles move slower: v ∝ 1/sqrt(m).
	v1 := ThermalVelocity(1, 300)
	v16 := ThermalVelocity(16, 300)
	if math.Abs(v1/v16-4) > 1e-12 {
		t.Fatalf("v(1)/v(16) = %v, want 4", v1/v16)
	}
	if ThermalVelocity(0, 300) != 0 {
		t.Fatal("zero mass should give zero velocity")
	}
	// (1/2) m v² per dof should equal kT/2 in expectation when v = sqrt(kT/m).
	v := ThermalVelocity(12, 250)
	if e := 0.5 * 12 * v * v; math.Abs(e-0.5*Boltzmann*250) > 1e-15 {
		t.Fatalf("energy per dof = %v", e)
	}
}

func TestCoulombConstMagnitude(t *testing.T) {
	// Two unit charges at 1 Å should repel with ≈332 kcal/mol: a sanity
	// anchor that the constant is in AKMA units, not SI.
	if CoulombConst < 331 || CoulombConst > 333 {
		t.Fatalf("CoulombConst = %v out of expected AKMA range", CoulombConst)
	}
}
