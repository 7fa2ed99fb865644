package pmd

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ewald"
	"repro/internal/md"
	"repro/internal/netmodel"
)

// FuzzValidateDecompRecovery throws random rank counts, PME meshes and
// decomposition / recovery kinds at the two validators every front end
// (cli, serve, chaos, figures) relies on: each answers with its typed
// error or the configuration really runs — a geometry the validators let
// through must never reach a panic (ewald.NewPME's on a mesh below the
// interpolation stencil, an odd K1 or a length the FFT cannot transform, a
// domain grid with no pencils) inside Run. On meshes up to 160 per side
// ValidateDecomp accepts a mesh exactly when ewald.NewPME builds it; the
// runs stay at 32 per side.
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
	f.Add(4, 1, 24, 6, 24, 0, 0)     // a dimension below 2·order: typed error
	f.Add(4, 1, 74, 37, 10, 1, 0)    // prime factors above 31: typed error
	f.Add(4, 1, 148, 148, 148, 0, 0) // the first such solvated-box mesh
	f.Add(4, 1, 124, 93, 155, 1, 0)  // 4·31, 3·31, 5·31: builds, too large to run
	sys := testSystem(27, 24, 5)
	f.Fuzz(func(t *testing.T, p, cpus, k1, k2, k3, decomp, recovery int) {
		if p > 64 || max(k1, k2, k3) > 160 {
			t.Skip("keeps one execution in the milliseconds")
		}
		dk, rk := DecompKind(decomp), RecoveryKind(recovery)
		mdCfg := testMDConfig()
		mdCfg.PME = md.PMEConfig{Beta: 0.4, K1: k1, K2: k2, K3: k3, Order: 4}

		// One replicated rank meets every per-decomposition constraint, so
		// what is left is the mesh.
		meshErr := ValidateDecomp(DecompReplicated, 1, mdCfg.PME)
		built := func() (ok bool) {
			defer func() { ok = recover() == nil }()
			ewald.NewPME(sys.Box, mdCfg.PME.Beta, k1, k2, k3, mdCfg.PME.Order)
			return
		}()
		if built != (meshErr == nil) {
			t.Fatalf("mesh %d×%d×%d: ValidateDecomp says %v, ewald.NewPME built it: %v", k1, k2, k3, meshErr, built)
		}

		if err := ValidateRecovery(rk, dk); err != nil {
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("ValidateRecovery(%v, %v) = %v (%T), want a *ConfigError", rk, dk, err, err)
			}
			return
		}
		err := ValidateDecomp(dk, p, mdCfg.PME)
		if err == nil && meshErr != nil {
			t.Fatalf("ValidateDecomp(%v, %d) accepted the mesh %d×%d×%d, which ewald.NewPME cannot transform", dk, p, k1, k2, k3)
		}
		if err != nil {
			var de *DecompError
			if !errors.As(err, &de) {
				t.Fatalf("ValidateDecomp(%v, %d, %+v) = %v (%T), want a *DecompError", dk, p, mdCfg.PME, err, err)
			}
			return
		}
		if max(k1, k2, k3) > 32 {
			return // a larger mesh's run takes seconds
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
