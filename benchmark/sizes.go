package main

import "repro/internal/figures"

// sizes fixes how much work each workload does. Work is fixed, not
// duration: the op lists below fill --seconds on the 2-core reference
// host (see README.md for the measurements they were sized from) and
// scale with --seconds.
type sizes struct {
	setupReps int // full constructions timed for setup_s

	// seq_md
	seqRelax      int // minimisation steps on the built system
	seqWarmSteps  int // untimed steps per engine before the first block
	seqBlockSteps int // steps per timed block
	seqPairs      int // (1-worker block, W-worker block) pairs
	seqTraceSteps int // steps per block of the traced run
	seqTracePairs int // traced+untraced block pairs per engine, traced run

	// dom_sweep
	domProcs int // simulated ranks (256: the ceiling study's hardest cell)
	domOps   int // fresh suites, three networks each

	// figure_all
	figOps int

	// serve_mixed
	serveDecks    int   // decks per client; a deck is every cost-driving combination once
	serveSteps    []int // MD step counts a spec draws from
	serveAtoms    []int // solvated-box sizes a spec draws from
	serveVerify   int   // 1 in this many computed results is recomputed directly
	serveExecEach int   // traced run: 1 in this many computed specs is also executed directly
}

// sizedForSeconds is the measuring time the op lists below are sized for;
// BENCHMARK.json's run_seconds is the same number (a self-test holds them
// equal), so the driver's runs are at scale 1.
const sizedForSeconds = 20

// fullSizes are the gated sizes, scaled to the requested seconds.
func fullSizes(seconds float64) sizes {
	scale := func(n int) int {
		v := int(float64(n)*seconds/sizedForSeconds + 0.5)
		if v < 1 {
			v = 1
		}
		return v
	}
	return sizes{
		setupReps: 3,

		seqRelax:      40,
		seqWarmSteps:  20,
		seqBlockSteps: 60,
		seqPairs:      scale(4), // 60 × (44 + 30) ms ≈ 4.4 s per pair
		seqTraceSteps: 30,
		seqTracePairs: scale(3),

		domProcs: 256,
		domOps:   scale(3), // ≈ 6.7 s per op

		// ≈ 9.3 s per op. Three, though that overruns --seconds by half: a
		// median of three sheds a disturbed op, a median of two cannot.
		figOps: scale(3),

		serveDecks:    scale(1), // ≈ 12 s per deck with W clients on W cores
		serveSteps:    []int{2, 3, 4, 5, 6, 7, 8},
		serveAtoms:    []int{120, 240, 480},
		serveVerify:   20,
		serveExecEach: 4,
	}
}

// smokeSuite is the one suite a smoke pass builds (building it is most of
// a smoke pass's time): the quick protocol at one step, handed out by
// every "fresh" construction of dom_sweep and figure_all.
func smokeSuite(o options) *figures.Suite {
	cfg := figures.Quick()
	cfg.Steps = 1
	cfg.Procs = []int{1, 2}
	cfg.Workers = o.workers
	cfg.SystemSeed = o.seed
	cfg.ClusterSeed = o.seed
	return figures.NewSuite(cfg)
}

// smokeSizes run every code path of every workload with one or two tiny
// ops: the self-test that the output carries every named metric.
func smokeSizes() sizes {
	return sizes{
		setupReps: 1,

		seqRelax:      5,
		seqWarmSteps:  1,
		seqBlockSteps: 1,
		seqPairs:      1,
		seqTraceSteps: 1,
		seqTracePairs: 1,

		domProcs: 4,
		domOps:   1,

		figOps: 1,

		serveDecks:    1,
		serveSteps:    []int{2},
		serveAtoms:    []int{120},
		serveVerify:   4,
		serveExecEach: 4,
	}
}
