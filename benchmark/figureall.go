package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/pmd"
)

// figureIDs are the figures Study.All regenerates, in its order.
var figureIDs = []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "factorial", "effects", "ablation", "scalelimit"}

// newFigStudy is one full construction of the figure_all workload: what
// charmmbench builds before -figure all.
func newFigStudy(o options) *core.Study {
	if o.smokeSuite != nil {
		return &core.Study{Suite: o.smokeSuite}
	}
	return core.NewStudy(core.Options{Workers: o.workers, SystemSeed: o.seed, ClusterSeed: o.seed})
}

// figOp is one op: everything `charmmbench -figure all` computes, on a
// fresh study. It returns the digest of the report bytes. With a tracer
// each figure is a span; the bytes are the same either way, because
// Study.All is exactly this loop.
func figOp(st *core.Study, tr *tracer) (string, error) {
	var buf bytes.Buffer
	op := tr.start("figure_all.op", -1)
	defer tr.end(op)
	if tr == nil {
		if err := st.All(&buf); err != nil {
			return "", fmt.Errorf("Study.All: %w", err)
		}
	} else {
		for _, id := range figureIDs {
			sp := tr.start("core.Figure."+id, op)
			err := st.Figure(id, &buf, core.FormatText)
			tr.end(sp)
			if err != nil {
				return "", fmt.Errorf("figure %s: %w", id, err)
			}
			buf.WriteByte('\n')
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// figChecks holds the ops against each other and the reference.
func figChecks(r *report, digests []string, st *core.Study, quick bool) {
	same := true
	for _, d := range digests {
		same = same && d == digests[0]
	}
	r.must("report_bytes_repeat", same, "sha256 of the report identical over %d ops", len(digests))
	stats := st.Stats()
	r.produced.FigureAll.SHA256 = digests[0]
	r.produced.FigureAll.RunStats = stats
	r.note("figure digest %s", digests[0])
	r.note("run stats %+v", stats)
	ref, err := loadReference()
	if err != nil {
		r.check("figure_digest", false, false, "%v", err)
		return
	}
	if r.seed != referenceSeed || quick {
		r.note("figure digest: reference comparison skipped (seed %d, full protocol only)", referenceSeed)
		return
	}
	match := digests[0] == ref.FigureAll.SHA256 && stats == ref.FigureAll.RunStats
	r.check("figure_digest", false, match, "matches_reference=%t", match)
}

// runFigureAll is the untraced figure_all run: one fresh study per op.
func runFigureAll(o options) (*report, error) {
	r := newReport(wFigureAll, o, false)
	sz := o.sz
	setup, studies := setupMedian(sz.setupReps, func() *core.Study { return newFigStudy(o) })
	for len(studies) < sz.figOps {
		studies = append(studies, newFigStudy(o))
	}
	if err := figWarm(studies[0], o); err != nil {
		return nil, err
	}

	var opMS []float64
	var digests []string
	var alloc uint64
	start := time.Now()
	for i := 0; i < sz.figOps; i++ {
		if i > 0 && capped(start) {
			r.truncated = true
			break
		}
		var digest string
		var err error
		sec, a := timed(func() { digest, err = figOp(studies[i], nil) })
		if err != nil {
			return nil, err
		}
		opMS = append(opMS, sec*1e3)
		digests = append(digests, digest)
		alloc += a
	}
	r.opBlocks(opMS, alloc, setup)
	figChecks(r, digests, studies[0], o.smokeSuite != nil)
	return r, nil
}

// figWarm is the untimed warm-up: a short replicated run on the study's
// system, outside the study, so its run cache and tapes stay empty. A
// whole op would cost as much as the blocks it warms for.
func figWarm(st *core.Study, o options) error {
	_, err := repP8(st, o, 2, nil)
	return err
}

// repP8 is one direct p=8 TCP replicated pmd.Run on the study's system.
func repP8(st *core.Study, o options, steps int, tape *pmd.Tape) (*pmd.Result, error) {
	cfg := st.Suite.Cfg
	res, err := pmd.Run(cluster.Config{Nodes: 8, CPUsPerNode: 1, Net: netmodel.TCPGigE(), Seed: cfg.ClusterSeed},
		cfg.Cost, pmd.Config{System: st.System(), MD: cfg.MD, Steps: steps, Tape: tape, HostWorkers: o.workers})
	if err != nil {
		return nil, fmt.Errorf("p=8 replicated run: %w", err)
	}
	return res, nil
}

// traceFigureAll is the traced figure_all run: one op figure by figure,
// one plain op, a second All on the warm study, and the record-against-
// replay pair that shows what the tape saves.
func traceFigureAll(o options, tr *tracer) (*report, error) {
	r := newReport(wFigureAll, o, true)
	from := snapHost()
	stTraced, stPlain := newFigStudy(o), newFigStudy(o)
	if err := figWarm(stTraced, o); err != nil {
		return nil, err
	}
	var dTraced, dPlain, dWarm string
	var err error
	before := len(tr.snapshot())
	secT, _ := timed(func() { dTraced, err = figOp(stTraced, tr) })
	if err != nil {
		return nil, err
	}
	spans := tr.snapshot()[before:]
	secP, _ := timed(func() { dPlain, err = figOp(stPlain, nil) })
	if err != nil {
		return nil, err
	}
	secRender, _ := timed(func() { dWarm, err = figOp(stPlain, nil) })
	if err != nil {
		return nil, err
	}
	r.attempted = 3
	for _, id := range figureIDs {
		r.scalar("core.figure_ms."+id, mean(durationsMS(spans, "core.Figure."+id)))
	}
	stats := stTraced.Stats()
	r.scalar("figures.misses", float64(stats.Misses))
	r.scalar("figures.hits", float64(stats.Hits))
	r.scalar("figures.tape_records", float64(stats.TapeRecords))
	r.scalar("figures.tape_replays", float64(stats.TapeReplays))
	r.scalar("figures.render_ms", secRender*1e3)
	r.scalar("figures.sim_ms", (secP-secRender)*1e3)

	// Physics + event simulation against event simulation only.
	steps := stTraced.Suite.Cfg.Steps
	tape := pmd.NewTape()
	root := tr.start("figure_all.tape", -1)
	id := tr.start("pmd.Run.record", root)
	t0 := time.Now()
	_, err = repP8(stTraced, o, steps, tape)
	recMS := time.Since(t0).Seconds() * 1e3
	tr.end(id)
	if err == nil && !tape.Complete() {
		err = fmt.Errorf("p=8 record run left the tape incomplete")
	}
	if err != nil {
		return nil, err
	}
	a0 := totalAlloc()
	id = tr.start("pmd.Run.replay", root)
	t0 = time.Now()
	_, err = repP8(stTraced, o, steps, tape)
	repMS := time.Since(t0).Seconds() * 1e3
	tr.end(id)
	tr.end(root)
	replayAlloc := totalAlloc() - a0
	if err != nil {
		return nil, err
	}
	r.scalar("pmd.rep_p8_record_ms", recMS)
	r.scalar("pmd.rep_p8_replay_ms", repMS)
	r.scalar("pmd.rep_p8_alloc_mb", float64(replayAlloc)/mib)
	r.scalar("trace.overhead_share", (secT-secP)/secP)
	r.hostMetrics(from)
	figChecks(r, []string{dTraced, dPlain, dWarm}, stTraced, o.smokeSuite != nil)
	return r, nil
}
