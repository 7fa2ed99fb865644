package pmd

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/kernels"
	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/vec"
)

// stepState is the run's state after one step, as rank 0 serves it:
// positions, velocities and forces, and the step's kinetic energy.
type stepState struct {
	pos, vel, frc []vec.V
	kin           float64
}

func captureSteps(t *testing.T, cfg Config, p int) []stepState {
	t.Helper()
	out := make([]stepState, cfg.Steps)
	cfg.onStep = func(w *worker, step int, _ StepTiming, _ md.EnergyReport) {
		if w.me() == 0 {
			out[step].pos, out[step].vel, out[step].frc = w.cur.pos, w.cur.vel, w.cur.frc
		}
	}
	res, err := Run(clusterCfg(p, 1, netmodel.TCPGigE()), cluster.PentiumIII1GHz(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range out {
		out[s].kin = res.Energies[s].Kinetic
	}
	return out
}

func vecDigest(vs ...[]vec.V) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vs {
		for _, a := range v {
			for _, x := range [3]float64{a.X, a.Y, a.Z} {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
				h.Write(b[:])
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestIntegratorMatchesParentKick pins md.Integrator against what the
// hand-written replicatedDecomp.drift/kick loops produced before the three
// step loops were folded into it, at commit 9e97e27, with the state
// digests recaptured twice: once when the kernels lost their serial path
// (the run's PME energy and spread are now sharded at every worker count,
// and its pair blocks sized by the list), and once when every run's
// trajectory became the sequential engine's, which made the third step's
// kinetic energy and the positions and velocities after it the same at
// every rank count (before, the rank-ascending merges put p = 8 one ulp
// off p = 3). Here the second step's state is advanced by the integrator
// alone, block by block over the rank partition, and must land on those
// bytes; the domain decomposition must land on them too.
func TestIntegratorMatchesParentKick(t *testing.T) {
	sys := testSystem(48, 24, 3)
	const kin, state = 0x404da93431d3147d, "efa78d9a0250091d"
	for _, p := range []int{3, 5, 8} {
		for _, decomp := range []DecompKind{DecompReplicated, DecompDomain} {
			cfg := Config{System: sys, MD: testMDConfig(), Steps: 3, Decomp: decomp}
			st := captureSteps(t, cfg, p)
			if got := math.Float64bits(st[2].kin); got != kin {
				t.Errorf("p=%d %v: kinetic bits %#x, parent %#x", p, decomp, got, uint64(kin))
			}
			if got := vecDigest(st[2].pos, st[2].vel); got != state {
				t.Errorf("p=%d %v: state digest %s, parent %s", p, decomp, got, state)
			}
			if decomp == DecompDomain {
				continue
			}

			// The primitives alone, from the state after step 1 and the
			// forces of step 2.
			in := md.NewEngine(sys, cfg.MD).Integrator()
			off := kernels.Partition(sys.N(), p, nil)
			pos := append([]vec.V(nil), st[1].pos...)
			vel := append([]vec.V(nil), st[1].vel...)
			for rk := 0; rk < p; rk++ {
				in.KickDrift(pos, vel, st[1].frc, off[rk], off[rk+1])
			}
			for rk := 0; rk < p; rk++ {
				in.Kick(vel, st[2].frc, off[rk], off[rk+1])
			}
			if got := math.Float64bits(in.Kinetic(vel, 0, sys.N())); got != kin {
				t.Errorf("p=%d: kinetic energy %#x, parent %#x", p, got, uint64(kin))
			}
			if got := vecDigest(pos, vel); got != state {
				t.Errorf("p=%d: block-wise state digest %s, parent %s", p, got, state)
			}
		}
	}
}
