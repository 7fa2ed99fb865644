package pmd

import (
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/md"
	"repro/internal/mpi"
	"repro/internal/rng"
)

// TestLostConservation checks the identity ResilientResult.Breakdown
// documents on every run of the golden matrix: each second a rewind or a
// resume books as Lost sits in exactly one rank's bucket (a surviving one
// or one a global rewind dropped) and in exactly one source term.
func TestLostConservation(t *testing.T) {
	for name, r := range resilientGoldenRuns(t) {
		var onDisk float64
		if r.Resumed != nil {
			onDisk = r.Resumed.LostOnDisk
		}
		held := r.LostTotal() + r.lostDropped
		booked := r.Breakdown.Total() + onDisk + r.lostInherited
		// The two sides add the same terms grouped differently; float
		// addition is not associative across the regrouping.
		if math.Abs(held-booked) > 1e-9*math.Max(1, booked) {
			t.Errorf("%s: ranks hold %g s of Lost (%g on survivors, %g on dropped ranks), the sources booked %g (%+v, on disk %g, inherited %g)",
				name, held, r.LostTotal(), r.lostDropped, booked, r.Breakdown, onDisk, r.lostInherited)
		}
	}
}

// TestReplayPriceRestoresNewestEpoch drives recorder.replayPrice over
// random rebuild epochs, resume indices and per-step compute: the restore
// epoch is the newest rebuild at or before the resume index (-1, the
// attempt start, when there is none), and the replay costs the crashed
// rank's compute since that epoch, floored at zero, or nothing when no
// step completed.
func TestReplayPriceRestoresNewestEpoch(t *testing.T) {
	r := rng.New(28)
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(12) // history entries 0 … n-1, one per completed step
		p := 1 + r.Intn(3)
		c := r.Intn(p)
		rec := &recorder{p: p, hist: make([][]ckptEntry, p)}
		comp := make([]float64, n)
		for k := range comp {
			comp[k] = r.Range(0, 10)
			rec.hist[c] = append(rec.hist[c], ckptEntry{step: k, acct: mpi.Accounting{Comp: comp[k]}})
		}
		for s := 0; s < n; s++ {
			if r.Intn(3) == 0 {
				rec.epochSteps = append(rec.epochSteps, s)
			}
		}
		for idx := -1; idx < n; idx++ {
			epoch, replayT := rec.replayPrice(c, idx)
			wantEpoch := -1
			for _, es := range rec.epochSteps {
				if es <= idx {
					wantEpoch = es
				}
			}
			wantT := 0.0
			if idx >= 0 {
				wantT = comp[idx]
				if wantEpoch >= 0 {
					wantT -= comp[wantEpoch]
				}
				wantT = math.Max(wantT, 0)
			}
			if epoch != wantEpoch || replayT != wantT {
				t.Fatalf("trial %d: epochs %v, idx %d: replayPrice = (%d, %g), want (%d, %g)",
					trial, rec.epochSteps, idx, epoch, replayT, wantEpoch, wantT)
			}
		}
	}
}

// TestRewindBooksEachRankOnce drives driver.rewind directly over random
// histories and strategies: every rank's loss is what it spent past the
// rewind point plus the strategy's extra (floored when clamped), the kept
// accounting merges into the right survivor after renumbering, and the
// dropped ranks' buckets land in lostDropped.
func TestRewindBooksEachRankOnce(t *testing.T) {
	r := rng.New(21)
	sys := testSystem(8, 24, 1)
	acct := func() mpi.Accounting {
		return mpi.Accounting{Comp: r.Range(0, 3), Comm: r.Range(0, 2), Sync: r.Range(0, 2), Lost: r.Range(0, 1)}
	}
	for trial := 0; trial < 200; trial++ {
		cpus, nodes := 1+r.Intn(2), 1+r.Intn(4)
		p := nodes * cpus
		depth := r.Intn(4) // checkpoints every rank has; rank 1 may hold one more
		rcfg := &ResilientConfig{RestartCost: r.Range(0, 5)}
		rcfg.System = sys
		d := &driver{rcfg: rcfg, out: &ResilientResult{}, stepsDone: 3, offset: 10}
		d.cfg.Nodes, d.cfg.CPUsPerNode = nodes, cpus
		rec := &recorder{d: d, p: p, hist: make([][]ckptEntry, p), atomOff: kernels.Partition(rcfg.System.N(), p, nil),
			res: &Result{}, accts: make([]mpi.Accounting, p)}
		for i := range rec.hist {
			n := depth
			if i == 1 {
				n++
			}
			for k := 0; k < n; k++ {
				e := ckptEntry{step: 2*k + 1, acct: acct()}
				if i == 0 {
					e.pos = rcfg.System.Pos
					e.frc = rcfg.System.Pos
				}
				rec.hist[i] = append(rec.hist[i], e)
			}
			rec.accts[i] = acct()
		}
		rec.res.Energies = make([]md.EnergyReport, 2*depth+2)
		var before []mpi.Accounting
		if trial%2 == 1 {
			d.carried = make([]mpi.Accounting, p)
			for i := range d.carried {
				d.carried[i] = acct()
			}
			before = append(before, d.carried...)
		} else {
			before = make([]mpi.Accounting, p)
		}
		s := rewindStrategy{dropNode: r.Intn(nodes+1) - 1, clamp: trial%3 == 0}
		extra := 0.0
		if trial%4 < 2 {
			extra = r.Range(-2, 2)
			s.extra = func(int) float64 { return extra }
		}
		detected := r.Range(0, 4)

		rw := d.rewind(rec, detected, s)

		if rw.idx != depth-1 || (rw.cp != nil) != (depth > 0) {
			t.Fatalf("trial %d: rewound to index %d (checkpoint %v) with %d shared checkpoints", trial, rw.idx, rw.cp != nil, depth)
		}
		wantKeep := 0
		if depth > 0 {
			wantKeep = 2 * depth
		}
		if d.stepsDone != 3+wantKeep || len(d.out.Energies) != wantKeep {
			t.Fatalf("trial %d: steps done %d, %d energies; want %d kept steps", trial, d.stepsDone, len(d.out.Energies), wantKeep)
		}
		if stall := detected + rcfg.RestartCost + extra; d.out.Wall != stall || d.offset != 10+stall {
			t.Fatalf("trial %d: wall %g offset %g after a stall of %g", trial, d.out.Wall, d.offset, stall)
		}
		k, dropped := 0, 0.0
		for i := 0; i < p; i++ {
			var kept mpi.Accounting
			if depth > 0 {
				kept = rec.hist[i][depth-1].acct
			}
			li := rec.accts[i].Total() - kept.Total() + extra
			if s.clamp && li < 0 {
				li = 0
			}
			if rw.lost[i] != li {
				t.Fatalf("trial %d rank %d: lost %g, want %g", trial, i, rw.lost[i], li)
			}
			want := before[i]
			want.Add(kept)
			want.Lost += li
			if i/cpus == s.dropNode {
				dropped += want.Lost
				continue
			}
			if d.carried[k] != want {
				t.Fatalf("trial %d: survivor %d (rank %d before the drop) carries %+v, want %+v", trial, k, i, d.carried[k], want)
			}
			k++
		}
		if len(d.carried) != k || d.out.lostDropped != dropped {
			t.Fatalf("trial %d: %d survivors and %g s dropped, want %d and %g", trial, len(d.carried), d.out.lostDropped, k, dropped)
		}
	}
}
