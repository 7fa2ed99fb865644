package pmd

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/topol"
)

// tapeMD is the test MD configuration with a thin list skin: the list is
// rebuilt at step 1, so a three-step run crosses an atom migration.
func tapeMD() md.Config {
	cfg := testMDConfig()
	cfg.FF.ListCutoff = 9.2
	return cfg
}

// tapeRun runs sys under one decomposition, network and middleware at p
// ranks with the given tape.
func tapeRun(t *testing.T, sys *topol.System, decomp DecompKind, p, steps int, net netmodel.Params,
	mw MiddlewareKind, workers int, tape *Tape) *Result {
	t.Helper()
	res, err := Run(clusterCfg(p, 1, net), cluster.PentiumIII1GHz(), Config{
		System:      sys,
		MD:          tapeMD(),
		Steps:       steps,
		Middleware:  mw,
		Decomp:      decomp,
		HostWorkers: workers,
		Tape:        tape,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDomainTapeReplayMatches: a domain run served from a tape is
// indistinguishable from a fresh run — timings, accounting, wall clock,
// energies and final positions — on every network, middleware and
// collective flavour and at one and four host workers, although the tape
// was recorded on one of them, by a domain run or, at p = 16, by a
// replicated one (the slab PME cannot tile p = 64). The trajectory crosses
// a list rebuild, so the view carries a migration and a second ownership
// epoch. CMPI runs at p = 16 only: its ring collectives make one 64-rank
// run cost more than the rest of the test together.
func TestDomainTapeReplayMatches(t *testing.T) {
	sys := testSystem(100, 24, 1)
	const steps = 3
	flavours := []MiddlewareKind{MiddlewareMPI, MiddlewareCMPI, MiddlewareModern}
	for _, p := range []int{16, 64} {
		recorders := []DecompKind{DecompDomain, DecompReplicated}
		if p == 64 {
			recorders = recorders[:1]
		}
		tapes := make([]*Tape, len(recorders))
		for i, decomp := range recorders {
			tapes[i] = NewTape()
			tapeRun(t, sys, decomp, p, steps, netmodel.TCPGigE(), MiddlewareMPI, 1, tapes[i])
			if !tapes[i].Complete() || len(tapes[i].snaps) != steps+1 {
				t.Fatalf("p=%d %v: recording left complete=%v with %d snapshots", p, decomp, tapes[i].Complete(), len(tapes[i].snaps))
			}
		}
		for _, net := range netmodel.All() {
			for _, mw := range flavours {
				if p == 64 && mw == MiddlewareCMPI {
					continue
				}
				fresh := tapeRun(t, sys, DecompDomain, p, steps, net, mw, 1, nil)
				for i, tape := range tapes {
					for _, workers := range []int{1, 4} {
						got := tapeRun(t, sys, DecompDomain, p, steps, net, mw, workers, tape)
						mustEqualResults(t, fmt.Sprintf("p=%d %v tape %s %v workers=%d", p, recorders[i], net.Name, mw, workers), fresh, got)
					}
				}
			}
		}
		for i, tape := range tapes {
			if epochs := tape.dom.epochs; len(epochs) < 2 || epochs[1].migration == nil {
				t.Fatalf("p=%d %v tape: the view holds %d epochs and no migration", p, recorders[i], len(epochs))
			}
		}
	}
}

// TestTapeServesBothDecompositions: a tape recorded under one
// decomposition serves runs of the other at the same rank and step count,
// in both directions, at p = 4 and 16: each replay equals a fresh run, the
// trajectory crosses a migration, and the tape stays complete. The
// replays, one per network, run at once, so the first domain replay of a
// replicated tape fills its view while the others read it.
func TestTapeServesBothDecompositions(t *testing.T) {
	sys := testSystem(100, 24, 1)
	nets := netmodel.All()
	for _, p := range []int{4, 16} {
		for _, tc := range []struct{ recorded, run DecompKind }{
			{DecompDomain, DecompReplicated},
			{DecompReplicated, DecompDomain},
		} {
			tape := NewTape()
			tapeRun(t, sys, tc.recorded, p, 3, netmodel.TCPGigE(), MiddlewareMPI, 1, tape)
			got := make([]*Result, len(nets))
			errs := make([]error, len(nets))
			var wg sync.WaitGroup
			for i, net := range nets {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = Run(clusterCfg(p, 1, net), cluster.PentiumIII1GHz(),
						Config{System: sys, MD: tapeMD(), Steps: 3, Decomp: tc.run, Tape: tape})
				}()
			}
			wg.Wait()
			for i, net := range nets {
				label := fmt.Sprintf("p=%d %v tape, %v run on %s", p, tc.recorded, tc.run, net.Name)
				if errs[i] != nil {
					t.Fatalf("%s: %v", label, errs[i])
				}
				mustEqualResults(t, label, tapeRun(t, sys, tc.run, p, 3, net, MiddlewareMPI, 1, nil), got[i])
			}
			if !tape.Complete() || !tape.snaps[2].rebuilt {
				t.Fatalf("p=%d %v tape: complete=%v, rebuilt at step 1=%v", p, tc.recorded, tape.Complete(), tape.snaps[2].rebuilt)
			}
		}
	}
}

// TestDomainTapeShapeMismatchIgnored: a domain tape recorded for another
// step or rank count is ignored, as a replicated one is.
func TestDomainTapeShapeMismatchIgnored(t *testing.T) {
	sys := testSystem(100, 24, 1)
	tcp := netmodel.TCPGigE()
	tape := NewTape()
	tapeRun(t, sys, DecompDomain, 4, 3, tcp, MiddlewareMPI, 1, tape)
	for _, shape := range []struct{ p, steps int }{{4, 2}, {2, 3}} {
		want := tapeRun(t, sys, DecompDomain, shape.p, shape.steps, tcp, MiddlewareMPI, 1, nil)
		got := tapeRun(t, sys, DecompDomain, shape.p, shape.steps, tcp, MiddlewareMPI, 1, tape)
		mustEqualResults(t, fmt.Sprintf("p=%d steps=%d", shape.p, shape.steps), want, got)
		if tape.p != 4 || tape.steps != 3 || len(tape.snaps) != 4 {
			t.Fatalf("tape clobbered: p=%d steps=%d snapshots=%d", tape.p, tape.steps, len(tape.snaps))
		}
	}
}
