package figures

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

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
	direct() // fills the process-wide FFT, force-field and PME tables either side would pay for

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

// TestFailedRecorderLeavesNoRecord: a crashing run that opens the
// workload's trajectory fails the batch, nothing requested after it is
// kept, and the tape is not left recorded — the next request records it
// again, and is served the fully evaluated steps the crashed runs left on
// the workload tape bit for bit, as a fresh suite's equal cells show. The
// replicated opener leads the batch and the other cells run over its
// trajectory at once; a batch led by a domain opener crashes too.
func TestFailedRecorderLeavesNoRecord(t *testing.T) {
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
		if st := s.Stats(); st != (RunStats{}) || s.recorded {
			t.Fatalf("after the crashed recorder %+v, recorded %v; want nothing kept", st, s.recorded)
		}
	}

	// Lift the fault (the spec is part of the cell key) and ask again.
	s.Cfg.FaultSpec, s.faults = "", nil
	healthy := freshSuite(quickConfig())
	// The replicated batch records the tape; the domain batch replays it.
	var want RunStats
	for _, decomp := range []pmd.DecompKind{pmd.DecompReplicated, pmd.DecompDomain} {
		res, err := s.RunCells(cells(4, decomp))
		if err != nil {
			t.Fatal(err)
		}
		want.Misses += 3
		if decomp == pmd.DecompReplicated {
			want.TapeRecords, want.TapeReplays = want.TapeRecords+1, want.TapeReplays+2
		} else {
			want.TapeReplays += 3
		}
		if st := s.Stats(); st != want {
			t.Fatalf("after the healthy %v batch %+v, want %+v", decomp, st, want)
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

// TestSuiteTapeCountsTheSeedOnce: a suite keeps one tape for its workload,
// with one trajectory, so its Bytes counts the trajectory — the initial
// state and pair list on — once, however many rank counts its cells span:
// two suites' Bytes over rank counts {1} and {p} exceed one suite's over
// both by one trajectory, the same for p = 2 and p = 4.
func TestSuiteTapeCountsTheSeedOnce(t *testing.T) {
	bytesOver := func(procs ...int) int64 {
		s := freshSuite(quickConfig())
		var cells []CellKey
		for _, p := range procs {
			cells = append(cells, s.cell(netmodel.TCPGigE(), p, 1, pmd.MiddlewareMPI, pmd.DecompReplicated))
		}
		if _, err := s.RunCells(cells); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.TapeRecords != 1 {
			t.Fatalf("%v: %d trajectories recorded", procs, st.TapeRecords)
		}
		return s.Bytes()
	}
	one := bytesOver(1)
	var seeds []int64
	for _, p := range []int{2, 4} {
		seeds = append(seeds, one+bytesOver(p)-bytesOver(1, p))
	}
	if seeds[0] <= 0 || seeds[1] != seeds[0] {
		t.Fatalf("the suites over two rank counts hold %v bytes less than two suites over one each, want one trajectory's, twice the same", seeds)
	}
	// The positions, velocities and pair list of the 3552-atom system.
	if seeds[0] < 2*24*3552+8*3552 {
		t.Fatalf("one trajectory holds %d bytes", seeds[0])
	}
}

// TestSuiteBytesCountsTheTapeOnce: a cached result's final positions are
// the tape's last state, so two runs at two rank counts return one array,
// and the suite's Bytes is its tape's plus the results' step timings.
func TestSuiteBytesCountsTheTapeOnce(t *testing.T) {
	s := freshSuite(quickConfig())
	res, err := s.RunCells([]CellKey{
		s.cell(netmodel.TCPGigE(), 2, 1, pmd.MiddlewareMPI, pmd.DecompReplicated),
		s.cell(netmodel.MyrinetGM(), 4, 1, pmd.MiddlewareMPI, pmd.DecompDomain),
	})
	if err != nil {
		t.Fatal(err)
	}
	if &res[0].FinalPos[0] != &res[1].FinalPos[0] {
		t.Fatal("two runs over the suite's tape hold two copies of the final positions")
	}
	want := s.tape.Bytes()
	for _, r := range res {
		for _, ts := range r.Timings {
			want += int64(len(ts)) * int64(unsafe.Sizeof(pmd.StepTiming{}))
		}
	}
	if got := s.Bytes(); got != want {
		t.Fatalf("the suite counts %d bytes, its tape and step timings %d", got, want)
	}
}
