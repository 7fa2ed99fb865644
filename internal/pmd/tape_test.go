package pmd

import (
	"fmt"
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

// tapeRun runs sys under one decomposition, network, middleware and
// collective flavour at p ranks with the given tape.
func tapeRun(t *testing.T, sys *topol.System, decomp DecompKind, p, steps int, net netmodel.Params,
	mw MiddlewareKind, modern bool, workers int, tape *Tape) *Result {
	t.Helper()
	res, err := Run(clusterCfg(p, 1, net), cluster.PentiumIII1GHz(), Config{
		System:            sys,
		MD:                tapeMD(),
		Steps:             steps,
		Middleware:        mw,
		ModernCollectives: modern,
		Decomp:            decomp,
		HostWorkers:       workers,
		Tape:              tape,
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
// was recorded on one of them. The trajectory crosses a list rebuild, so
// the tape carries a migration and a second ownership epoch. CMPI runs at
// p = 16 only: its ring collectives make one 64-rank run cost more than
// the rest of the test together.
func TestDomainTapeReplayMatches(t *testing.T) {
	sys := testSystem(100, 24, 1)
	const steps = 3
	flavours := []struct {
		mw     MiddlewareKind
		modern bool
	}{{MiddlewareMPI, false}, {MiddlewareCMPI, false}, {MiddlewareMPI, true}}
	for _, p := range []int{16, 64} {
		tape := NewTape()
		tapeRun(t, sys, DecompDomain, p, steps, netmodel.TCPGigE(), MiddlewareMPI, false, 1, tape)
		if !tape.Complete() || len(tape.snaps) != steps+1 {
			t.Fatalf("p=%d: recording left complete=%v with %d snapshots", p, tape.Complete(), len(tape.snaps))
		}
		migrated := false
		for _, st := range tape.snaps[1:] {
			migrated = migrated || st.migration != nil
		}
		if !migrated {
			t.Fatalf("p=%d: no migration on the tape", p)
		}
		for _, net := range netmodel.All() {
			for _, f := range flavours {
				if p == 64 && f.mw == MiddlewareCMPI {
					continue
				}
				fresh := tapeRun(t, sys, DecompDomain, p, steps, net, f.mw, f.modern, 1, nil)
				for _, workers := range []int{1, 4} {
					got := tapeRun(t, sys, DecompDomain, p, steps, net, f.mw, f.modern, workers, tape)
					mustEqualResults(t, fmt.Sprintf("p=%d %s %v modern=%t workers=%d", p, net.Name, f.mw, f.modern, workers), fresh, got)
				}
			}
		}
	}
}

// TestTapeNeverCrossesDecompositions: a tape recorded under one
// decomposition is never served to a run of the other at the same rank
// and step count; the run executes its physics and leaves the tape as it
// was.
func TestTapeNeverCrossesDecompositions(t *testing.T) {
	sys := testSystem(100, 24, 1)
	tcp := netmodel.TCPGigE()
	for _, tc := range []struct{ recorded, run DecompKind }{
		{DecompDomain, DecompReplicated},
		{DecompReplicated, DecompDomain},
	} {
		tape := NewTape()
		tapeRun(t, sys, tc.recorded, 4, 3, tcp, MiddlewareMPI, false, 1, tape)
		want := tapeRun(t, sys, tc.run, 4, 3, tcp, MiddlewareMPI, false, 1, nil)
		got := tapeRun(t, sys, tc.run, 4, 3, tcp, MiddlewareMPI, false, 1, tape)
		mustEqualResults(t, fmt.Sprintf("%v tape, %v run", tc.recorded, tc.run), want, got)
		if !tape.Complete() || tape.decomp != tc.recorded {
			t.Fatalf("%v tape clobbered by a %v run: complete=%v decomp=%v", tc.recorded, tc.run, tape.Complete(), tape.decomp)
		}
	}
}

// TestDomainTapeShapeMismatchIgnored: a domain tape recorded for another
// step or rank count is ignored, as a replicated one is.
func TestDomainTapeShapeMismatchIgnored(t *testing.T) {
	sys := testSystem(100, 24, 1)
	tcp := netmodel.TCPGigE()
	tape := NewTape()
	tapeRun(t, sys, DecompDomain, 4, 3, tcp, MiddlewareMPI, false, 1, tape)
	for _, shape := range []struct{ p, steps int }{{4, 2}, {2, 3}} {
		want := tapeRun(t, sys, DecompDomain, shape.p, shape.steps, tcp, MiddlewareMPI, false, 1, nil)
		got := tapeRun(t, sys, DecompDomain, shape.p, shape.steps, tcp, MiddlewareMPI, false, 1, tape)
		mustEqualResults(t, fmt.Sprintf("p=%d steps=%d", shape.p, shape.steps), want, got)
		if tape.p != 4 || tape.steps != 3 || len(tape.snaps) != 4 {
			t.Fatalf("tape clobbered: p=%d steps=%d snapshots=%d", tape.p, tape.steps, len(tape.snaps))
		}
	}
}
