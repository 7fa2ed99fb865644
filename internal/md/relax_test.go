package md

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/topol"
	"repro/internal/vec"
)

// relaxedMyoglobinDigest is the sha256 of the seed-1 myoglobin's positions
// after Relax(sys, 80), captured while Relax still ran on one worker and
// Minimize evaluated the forces again after every rejected move.
const relaxedMyoglobinDigest = "40bc62649e192416cc87f489e4f3cf41dcfca8e86eba349c2fc8eb7a95c8f06a"

func posDigest(pos []vec.V) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range pos {
		for _, x := range [3]float64{p.X, p.Y, p.Z} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Relax spreads its kernels over GOMAXPROCS workers; the relaxed
// positions are the same bits at every width, and the bits it produced on
// one worker. Not parallel: it sets GOMAXPROCS.
func TestRelaxBitsIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first []vec.V
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
		Relax(sys, 80)
		if first == nil {
			first = sys.Pos
		}
		for i := range sys.Pos {
			if sys.Pos[i] != first[i] {
				t.Fatalf("GOMAXPROCS %d: atom %d at %v, at GOMAXPROCS 1 %v", procs, i, sys.Pos[i], first[i])
			}
		}
		if got := posDigest(sys.Pos); got != relaxedMyoglobinDigest {
			t.Fatalf("GOMAXPROCS %d: relaxed positions sha256 %s, want %s", procs, got, relaxedMyoglobinDigest)
		}
	}
}

// minimizeRecomputing is steepest descent as Minimize runs it, except that
// a rejected move evaluates the forces at the restored positions again.
func minimizeRecomputing(e *Engine, maxSteps int, initialStep float64) float64 {
	step := initialStep
	prev := e.ComputeForces(nil, nil).Potential()
	saved := make([]vec.V, len(e.Pos))
	for s := 0; s < maxSteps && step > 1e-8; s++ {
		copy(saved, e.Pos)
		var fmax float64
		for _, f := range e.Frc {
			fmax = max(fmax, f.Norm())
		}
		if fmax == 0 {
			break
		}
		scale := step / fmax
		for i := range e.Pos {
			e.Pos[i] = e.Pos[i].Add(e.Frc[i].Scale(scale))
		}
		if cur := e.ComputeForces(nil, nil).Potential(); cur < prev {
			prev = cur
			step *= 1.2
		} else {
			copy(e.Pos, saved)
			step *= 0.5
			e.ComputeForces(nil, nil)
		}
	}
	return prev
}

// A rejected move whose evaluation kept the neighbour list restores the
// forces its step started from: on the seed-1 myoglobin, 80 steps take 83
// force evaluations instead of 97 (16 rejections, 2 of them on a rebuilt
// list), and end at the always-recompute minimiser's bits.
func TestMinimizeReusesRejectedStepForces(t *testing.T) {
	engine := func() *Engine {
		sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: 1})
		cfg := ClampCutoffs(DefaultConfig(), sys.Box)
		cfg.Temperature = 0
		return NewEngine(sys, cfg)
	}
	e := engine()
	reg := obs.NewRegistry()
	e.SetObs(reg)
	got := e.Minimize(80, 0.1)
	if evals := reg.Counter("repro_md_force_evals_total", "force evaluations performed").Value(); evals != 83 {
		t.Errorf("Minimize(80) made %v force evaluations, want 83", evals)
	}

	ref := engine()
	want := minimizeRecomputing(ref, 80, 0.1)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("final energy %x, always-recompute minimiser %x", math.Float64bits(got), math.Float64bits(want))
	}
	for i := range e.Pos {
		if e.Pos[i] != ref.Pos[i] {
			t.Fatalf("atom %d at %v, always-recompute minimiser %v", i, e.Pos[i], ref.Pos[i])
		}
	}
}
