package pmd

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/md"
	"repro/internal/netmodel"
)

// FuzzValidateDecompRecovery throws random rank counts, PME meshes and
// decomposition / recovery kinds at the two validators every front end
// (cli, serve, chaos, figures) relies on: each answers with its typed
// error or the configuration really runs — a geometry the validators let
// through must never reach a panic (ewald.NewPME's on a mesh below the
// interpolation stencil or an odd K1, an FFT of an impossible length, a
// domain grid with no pencils) inside Run.
func FuzzValidateDecompRecovery(f *testing.F) {
	f.Add(4, 1, 24, 24, 24, 0, 0)
	f.Add(8, 2, 24, 24, 24, 1, 1)
	f.Add(29, 1, 24, 24, 24, 1, 0)  // prime: a 1×29 pencil grid
	f.Add(196, 1, 24, 24, 24, 1, 0) // 14×14 pencils on a 13-line half spectrum
	f.Add(25, 1, 24, 24, 24, 0, 0)  // more ranks than x-slabs
	f.Add(7, 1, 16, 12, 20, 1, 0)   // prime rank count on an anisotropic mesh
	f.Add(64, 2, 32, 32, 32, 1, 0)  // the largest grid in range, dual-CPU nodes
	f.Add(13, 1, 13, 32, 32, 0, 0)  // one x-slab per rank, odd K1: typed error
	f.Add(0, 1, 24, 24, 24, 0, 0)
	f.Add(-3, 2, 24, 24, 24, 1, 1)
	f.Add(6, 2, 9, 11, 13, 1, 0) // odd mesh: typed error, no complex fallback
	f.Add(2, 1, 8, 8, 8, 0, 1)   // local recovery without domains
	f.Add(3, 1, 24, 24, 24, 7, 9)
	f.Add(4, 1, 24, 6, 24, 0, 0) // a dimension below 2·order: typed error
	sys := testSystem(27, 24, 5)
	f.Fuzz(func(t *testing.T, p, cpus, k1, k2, k3, decomp, recovery int) {
		if p > 64 || max(k1, k2, k3) > 32 {
			t.Skip("keeps one execution in the milliseconds")
		}
		dk, rk := DecompKind(decomp), RecoveryKind(recovery)
		mdCfg := testMDConfig()
		mdCfg.PME = md.PMEConfig{Beta: 0.4, K1: k1, K2: k2, K3: k3, Order: 4}

		if err := ValidateRecovery(rk, dk); err != nil {
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("ValidateRecovery(%v, %v) = %v (%T), want a *ConfigError", rk, dk, err, err)
			}
			return
		}
		err := ValidateDecomp(dk, p, mdCfg.PME)
		if err == nil && (k1%2 != 0 || min(k1, k2, k3) < 2*mdCfg.PME.Order) {
			t.Fatalf("ValidateDecomp(%v, %d) accepted the mesh %d×%d×%d, which ewald.NewPME cannot transform", dk, p, k1, k2, k3)
		}
		if err != nil {
			var de *DecompError
			if !errors.As(err, &de) {
				t.Fatalf("ValidateDecomp(%v, %d, %+v) = %v (%T), want a *DecompError", dk, p, mdCfg.PME, err, err)
			}
			return
		}
		cl := cluster.Config{Nodes: p / max(cpus, 1), CPUsPerNode: cpus, Net: netmodel.MyrinetGM(), Seed: 1}
		if cl.Validate() != nil || cl.Nodes*cpus != p {
			return // not a cluster: the rank count the validators saw is not the one Run would get
		}
		if _, err := Run(cl, cluster.PentiumIII1GHz(), Config{
			System: sys, MD: mdCfg, Steps: 1, Middleware: MiddlewareMPI, Decomp: dk,
		}); err != nil {
			t.Fatalf("validators accepted %v on %d ranks with mesh %d×%d×%d, Run did not: %v", dk, p, k1, k2, k3, err)
		}
	})
}
