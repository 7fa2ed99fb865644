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

// stepState is the run's state after one step: rank 0's replica of the
// positions and combined forces, the velocities assembled from every
// rank's own block (a replicated rank advances no other), and the step's
// merged kinetic energy.
type stepState struct {
	pos, vel, frc []vec.V
	kin           float64
}

func captureSteps(t *testing.T, cfg Config, p int) []stepState {
	t.Helper()
	out := make([]stepState, cfg.Steps)
	for s := range out {
		out[s].vel = make([]vec.V, cfg.System.N())
	}
	cfg.onStep = func(w *worker, step int) {
		lo, hi := w.myAtoms()
		copy(out[step].vel[lo:hi], w.vel[lo:hi])
		if w.me() == 0 {
			out[step].pos = append([]vec.V(nil), w.pos...)
			out[step].frc = append([]vec.V(nil), w.frcTotal...)
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
// step loops were folded into it. The digests were captured at commit
// 9e97e27 with this file's captureSteps: the third step's merged kinetic
// energy (its bits depend on the rank count — p = 8 differs from p = 3 in
// the last place) and the positions and velocities after it. The state
// digests were recaptured once when the kernels lost their serial path
// (the run's PME energy and spread are now sharded at every worker count,
// and its pair blocks sized by the list); the kinetic bits held. Here the
// second step's state is advanced by the integrator alone, block by block
// over the rank partition, and must land on those bytes; the domain
// decomposition's canonical evaluator must land on them too.
func TestIntegratorMatchesParentKick(t *testing.T) {
	sys := testSystem(48, 24, 3)
	cases := []struct {
		p     int
		kin   uint64
		state string
	}{
		{p: 3, kin: 0x404da93431d3147a, state: "dba567a375a45a8e"},
		{p: 5, kin: 0x404da93431d3147a, state: "52089e09e7b4aaba"},
		{p: 8, kin: 0x404da93431d3147b, state: "74083458d08833ff"},
	}
	for _, tc := range cases {
		for _, decomp := range []DecompKind{DecompReplicated, DecompDomain} {
			cfg := Config{System: sys, MD: testMDConfig(), Steps: 3, Decomp: decomp}
			st := captureSteps(t, cfg, tc.p)
			if got := math.Float64bits(st[2].kin); got != tc.kin {
				t.Errorf("p=%d %v: kinetic bits %#x, parent %#x", tc.p, decomp, got, tc.kin)
			}
			if got := vecDigest(st[2].pos, st[2].vel); got != tc.state {
				t.Errorf("p=%d %v: state digest %s, parent %s", tc.p, decomp, got, tc.state)
			}
			if decomp == DecompDomain {
				continue
			}

			// The primitives alone, from the state after step 1 and the
			// forces of step 2.
			in := md.NewEngine(sys, cfg.MD).Integrator()
			off := kernels.Partition(sys.N(), tc.p, nil)
			pos := append([]vec.V(nil), st[1].pos...)
			vel := append([]vec.V(nil), st[1].vel...)
			var kin float64
			for rk := 0; rk < tc.p; rk++ {
				in.KickDrift(pos, vel, st[1].frc, off[rk], off[rk+1])
			}
			for rk := 0; rk < tc.p; rk++ {
				in.Kick(vel, st[2].frc, off[rk], off[rk+1])
				kin += in.Kinetic(vel, off[rk], off[rk+1])
			}
			if got := math.Float64bits(kin); got != tc.kin {
				t.Errorf("p=%d: rank-ascending kinetic partials %#x, parent %#x", tc.p, got, tc.kin)
			}
			if got := vecDigest(pos, vel); got != tc.state {
				t.Errorf("p=%d: block-wise state digest %s, parent %s", tc.p, got, tc.state)
			}
		}
	}
}
