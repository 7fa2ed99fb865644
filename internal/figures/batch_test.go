package figures

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/pmd"
)

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// TestBatchOfOneRunsInline: a single-cell request — the whole of what
// dom_sweep asks of a suite — starts no goroutine of its own and allocates
// what the pmd.Run under it allocates.
func TestBatchOfOneRunsInline(t *testing.T) {
	s := freshSuite(quickConfig())
	net := netmodel.MyrinetGM()
	direct := func() {
		c := s.cell(net, 16, 1, pmd.MiddlewareMPI, pmd.DecompDomain)
		if _, err := pmd.Run(c.Cluster, s.Cfg.Cost, pmd.Config{
			System: s.sys, MD: s.Cfg.MD, Steps: c.Steps, Middleware: c.Middleware,
			Decomp: c.Decomp, HostWorkers: s.workers(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	direct() // fills the process-wide FFT tables either side would pay for

	a0 := totalAlloc()
	direct()
	a1 := totalAlloc()
	goroutines := runtime.NumGoroutine()
	if _, err := s.RunDecomp(net, 16, 1, pmd.MiddlewareMPI, pmd.DecompDomain); err != nil {
		t.Fatal(err)
	}
	inSuite, alone := totalAlloc()-a1, a1-a0
	if float64(inSuite) > 1.01*float64(alone) {
		t.Errorf("a batch of one allocated %d B, the pmd.Run under it %d B", inSuite, alone)
	}
	// The run's own pool workers have signalled completion but may not have
	// left the scheduler's count yet.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines before a batch of one, %d after", goroutines, n)
	}
}

// TestBatchErrorIsFirstInRequestOrder: an untileable cell between valid
// ones fails the batch with the error a lone request gets, and leaves the
// suite as if the cells had been requested one at a time up to it — what
// was requested later is not kept, so figures run afterwards produce a
// fresh suite's bytes and, at any worker count, the serial counters.
func TestBatchErrorIsFirstInRequestOrder(t *testing.T) {
	tcp := netmodel.TCPGigE()
	var fresh bytes.Buffer
	if err := renderFig38(freshSuite(quickConfig()), &fresh); err != nil {
		t.Fatal(err)
	}

	var serial RunStats
	for _, workers := range []int{1, 4} {
		cfg := quickConfig()
		cfg.Workers = workers
		s := freshSuite(cfg)
		cell := func(p int) CellKey { return s.cell(tcp, p, 1, pmd.MiddlewareMPI, pmd.DecompReplicated) }

		_, lone := s.RunDecomp(tcp, 100, 1, pmd.MiddlewareMPI, pmd.DecompReplicated)
		var want, got *pmd.DecompError
		if !errors.As(lone, &want) {
			t.Fatalf("RunDecomp at p=100: %v, want a *pmd.DecompError", lone)
		}
		_, err := s.RunCells([]CellKey{cell(2), cell(100), cell(4)})
		if !errors.As(err, &got) || *got != *want {
			t.Fatalf("workers=%d: batch error %v, want %v", workers, err, lone)
		}
		if st := s.Stats(); st != (RunStats{Misses: 1, TapeRecords: 1}) {
			t.Fatalf("workers=%d: after the failed batch %+v, want only the p=2 cell kept", workers, st)
		}

		var after bytes.Buffer
		if err := renderFig38(s, &after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after.Bytes(), fresh.Bytes()) {
			t.Fatalf("workers=%d: figures after a failed batch differ from a fresh suite's", workers)
		}
		if workers == 1 {
			serial = s.Stats()
		} else if st := s.Stats(); st != serial {
			t.Fatalf("workers=%d: RunStats %+v, serial %+v", workers, st, serial)
		}
	}
}

// TestFailedRecorderLeavesNoTape: a recorder that crashes fails the cells
// waiting to replay it and leaves no tape behind, half-recorded or
// otherwise — the next request for that decomposition and rank count
// records from scratch. The replicated recorder leads the batch; the domain
// recorder behind it crashes too, or is never started.
func TestFailedRecorderLeavesNoTape(t *testing.T) {
	cfg := quickConfig()
	cfg.Workers = 4
	cfg.FaultSpec = "crash@0.05,rank=3" // no recovery loop here: fatal to every p ≥ 4 run
	s := freshSuite(cfg)
	cells := func(p int, decomp pmd.DecompKind) []CellKey {
		var out []CellKey
		for _, net := range netmodel.All() {
			out = append(out, s.cell(net, p, 1, pmd.MiddlewareMPI, decomp))
		}
		return out
	}
	for _, batch := range [][]CellKey{
		slices.Concat(cells(4, pmd.DecompReplicated), cells(4, pmd.DecompDomain), cells(2, pmd.DecompReplicated)),
		slices.Concat(cells(4, pmd.DecompDomain), cells(2, pmd.DecompDomain)),
	} {
		if _, err := s.RunCells(batch); !errors.Is(err, mpi.ErrCrashed) {
			t.Fatalf("batch led by a crashing recorder: %v, want a crash", err)
		}
		if st := s.Stats(); st != (RunStats{}) || len(s.tapes) != 0 {
			t.Fatalf("after the crashed recorder %+v and %d tapes, want nothing kept", st, len(s.tapes))
		}
	}

	// Lift the fault (the spec is part of the cell key) and ask again.
	s.Cfg.FaultSpec, s.faults = "", nil
	healthy := freshSuite(quickConfig())
	var want RunStats
	for _, decomp := range []pmd.DecompKind{pmd.DecompReplicated, pmd.DecompDomain} {
		res, err := s.RunCells(cells(4, decomp))
		if err != nil {
			t.Fatal(err)
		}
		want.Misses, want.TapeRecords, want.TapeReplays = want.Misses+3, want.TapeRecords+1, want.TapeReplays+2
		if st := s.Stats(); st != want {
			t.Fatalf("after the healthy %v batch %+v, want one record and two replays more", decomp, st)
		}
		fresh, err := healthy.RunCells(cells(4, decomp))
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if res[i].Wall != fresh[i].Wall || res[i].Energies[0] != fresh[i].Energies[0] {
				t.Fatalf("%v cell %d after the crashed recorder differs from a fresh suite's", decomp, i)
			}
		}
	}
}
