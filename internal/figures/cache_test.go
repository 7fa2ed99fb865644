package figures

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/pmd"
)

// TestRunStatsCountUniqueConfigs: every unique configuration simulates
// exactly once per suite lifetime; repeats are cache hits, and runs
// sharing a rank count share one physics tape (one recording, the rest
// replays).
func TestRunStatsCountUniqueConfigs(t *testing.T) {
	s := freshSuite(quickConfig())
	cells := []struct {
		net netmodel.Params
		p   int
		mw  pmd.MiddlewareKind
	}{
		{netmodel.MyrinetGM(), 2, pmd.MiddlewareMPI},
		{netmodel.TCPGigE(), 2, pmd.MiddlewareMPI},
		{netmodel.MyrinetGM(), 2, pmd.MiddlewareCMPI},
		{netmodel.MyrinetGM(), 4, pmd.MiddlewareMPI},
	}
	for round := 0; round < 3; round++ {
		for _, c := range cells {
			if _, err := s.Run(c.net, c.p, 1, c.mw); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.Misses != len(cells) {
		t.Fatalf("misses = %d, want %d (each unique config simulated once)", st.Misses, len(cells))
	}
	if st.Hits != 2*len(cells) {
		t.Fatalf("hits = %d, want %d", st.Hits, 2*len(cells))
	}
	// Two distinct rank counts → two tapes recorded; the two extra p=2
	// cells replayed the p=2 tape.
	if st.TapeRecords != 2 {
		t.Fatalf("tape records = %d, want 2", st.TapeRecords)
	}
	if st.TapeReplays != 2 {
		t.Fatalf("tape replays = %d, want 2", st.TapeReplays)
	}

	// One batch: a cached cell, a fresh rank count three times over and one
	// of those cells again. The first p=1 cell records alone, the other two
	// replay it, and the repeat is a hit although its first request missed
	// in the same batch.
	fresh := func(net netmodel.Params) CellKey { return s.cell(net, 1, 1, pmd.MiddlewareMPI, pmd.DecompReplicated) }
	res, err := s.RunCells([]CellKey{
		s.cell(netmodel.MyrinetGM(), 4, 1, pmd.MiddlewareMPI, pmd.DecompReplicated),
		fresh(netmodel.TCPGigE()), fresh(netmodel.SCoreGigE()), fresh(netmodel.TCPGigE()), fresh(netmodel.MyrinetGM()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[1] != res[3] {
		t.Fatal("a cell requested twice in one batch came back as two results")
	}
	want := RunStats{Misses: st.Misses + 3, Hits: st.Hits + 2, TapeRecords: st.TapeRecords + 1, TapeReplays: st.TapeReplays + 2}
	if got := s.Stats(); got != want {
		t.Fatalf("after the batch: %+v, want %+v", got, want)
	}
}

// TestFaultSpecPartitionsCache: a faulted suite must never serve a healthy
// suite's timing (the spec is part of the content key) and its results
// must differ.
func TestFaultSpecPartitionsCache(t *testing.T) {
	healthy := freshSuite(quickConfig())
	cfg := quickConfig()
	cfg.FaultSpec = "straggler@0:1000,node=0,slow=3"
	faulted := freshSuite(cfg)

	a, err := healthy.Run(netmodel.MyrinetGM(), 2, 1, pmd.MiddlewareMPI)
	if err != nil {
		t.Fatal(err)
	}
	b, err := faulted.Run(netmodel.MyrinetGM(), 2, 1, pmd.MiddlewareMPI)
	if err != nil {
		t.Fatal(err)
	}
	if a.Wall == b.Wall {
		t.Fatal("straggler scenario did not change the simulated wall clock")
	}
}

// workerConfigs returns the quick configuration at Workers = 1, 2, 4, 8,
// serial first.
func workerConfigs(configure func(*Config)) []Config {
	var cfgs []Config
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := quickConfig()
		cfg.Workers = workers
		if configure != nil {
			configure(&cfg)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// identicalAcross renders on a fresh suite per configuration and fails
// unless every one produces the bytes and the RunStats of the first, which
// it returns.
func identicalAcross(t *testing.T, cfgs []Config, render func(s *Suite, w io.Writer) error) RunStats {
	t.Helper()
	var refBytes []byte
	var refStats RunStats
	for i, cfg := range cfgs {
		s := freshSuite(cfg)
		var buf bytes.Buffer
		if err := render(s, &buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refBytes, refStats = buf.Bytes(), s.Stats()
			continue
		}
		if !bytes.Equal(buf.Bytes(), refBytes) {
			t.Fatalf("bytes differ at workers=%d kernel-workers=%d", cfg.Workers, cfg.MD.KernelWorkers)
		}
		if got := s.Stats(); got != refStats {
			t.Fatalf("RunStats %+v at workers=%d kernel-workers=%d, serial %+v", got, cfg.Workers, cfg.MD.KernelWorkers, refStats)
		}
	}
	return refStats
}

// renderFigures renders the named registry figures in order, each one's
// cells as a batch of its own.
func renderFigures(ids ...string) func(s *Suite, w io.Writer) error {
	return func(s *Suite, w io.Writer) error {
		for _, id := range ids {
			fig, ok := Lookup(id)
			if !ok {
				return fmt.Errorf("no figure %q in the registry", id)
			}
			rows, err := s.Rows(fig)
			if err != nil {
				return err
			}
			if err := s.Render(w, fig, rows[0], false); err != nil {
				return err
			}
		}
		return nil
	}
}

// renderFig38 renders Figs. 3 and 8: a tape record per rank count, then
// their replays.
var renderFig38 = renderFigures("3", "8")

// TestFigureOutputIdenticalAcrossWorkers: the rendered figure bytes —
// the user-visible artifact — and the run counters are identical between
// the serial schedule and every number of cells in flight.
func TestFigureOutputIdenticalAcrossWorkers(t *testing.T) {
	identicalAcross(t, workerConfigs(nil), renderFig38)
}

// TestFaultedOutputIdenticalAcrossWorkers: the shared fault injector is
// read-only, so a degraded link plus a straggler change nothing about that.
func TestFaultedOutputIdenticalAcrossWorkers(t *testing.T) {
	cfgs := workerConfigs(func(c *Config) {
		c.FaultSpec = "link@0:1000,node=1,bw=8;straggler@0:1000,node=0,slow=3"
	})
	identicalAcross(t, []Config{cfgs[0], cfgs[2]}, renderFig38)
}
