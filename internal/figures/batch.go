package figures

import (
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/pmd"
)

// cell names one cell of this suite's workload: procs processors on nodes
// of cpusPerNode CPUs (procs must divide evenly).
func (s *Suite) cell(net netmodel.Params, procs, cpusPerNode int, mw pmd.MiddlewareKind, decomp pmd.DecompKind) CellKey {
	return CellKey{
		Cluster: cluster.Config{
			Nodes:       procs / cpusPerNode,
			CPUsPerNode: cpusPerNode,
			Net:         net,
			Seed:        s.Cfg.ClusterSeed,
		},
		Middleware: mw,
		Steps:      s.Cfg.Steps,
		FaultSpec:  s.Cfg.FaultSpec,
		Decomp:     decomp,
	}
}

// procs is the cell's processor count.
func (k CellKey) procs() int { return k.Cluster.Nodes * k.Cluster.CPUsPerNode }

// tapeKey names the physics a cell computes: everything else in a cell
// key changes when work happens, never what is computed.
type tapeKey struct {
	decomp pmd.DecompKind
	p      int
}

func (k CellKey) tape() tapeKey { return tapeKey{k.Decomp, k.procs()} }

// job is one cache-missing cell of a batch. The requesting goroutine owns
// every field except res, err and secs, which the goroutine executing the
// cell writes before it hands the job back.
type job struct {
	cell  CellKey
	tape  *pmd.Tape
	after *job // the job of this batch recording tape; nil if tape was complete, or this job records it

	started, done bool
	res           *pmd.Result
	err           error
	secs          float64 // host seconds inside the cell
}

// RunCells is the suite's one way to execute cells: it returns the
// (cached) results of the requested cells, in request order, simulating
// the cache misses with at most Cfg.Workers of them in flight. Three rules
// keep figure bytes and RunStats independent of the worker count:
//
//   - All bookkeeping — run cache, tapes, counters — happens here, on the
//     requesting goroutine, in request order. Goroutines executing cells
//     receive a (cell, tape) pair and return a (result, error) pair.
//   - Per decomposition and rank count, the first requester whose tape is
//     missing records it alone; the other cells of that decomposition and
//     rank count start once it has finished and replay. A failed recorder
//     is their error too.
//   - The first error in request order is the batch's error, and nothing
//     requested after it is kept: the suite is left as if the cells had
//     been requested one at a time up to the failure.
//
// A batch with at most one miss, or Workers = 1, runs inline on the caller
// in request order — no goroutine, no channel.
func (s *Suite) RunCells(cells []CellKey) ([]*pmd.Result, error) {
	keys := make([]string, len(cells))
	var jobs []*job
	queued := map[string]*job{}    // this batch's misses by key
	recorder := map[tapeKey]*job{} // this batch's recording job per tape
	for i, c := range cells {
		keys[i] = c.String()
		if s.cache[keys[i]] != nil || queued[keys[i]] != nil {
			continue
		}
		j := &job{cell: c}
		switch tk := c.tape(); {
		case s.tapes[tk] != nil:
			j.tape = s.tapes[tk]
		case recorder[tk] != nil:
			j.tape, j.after = recorder[tk].tape, recorder[tk]
		default:
			j.tape = pmd.NewTape()
			recorder[tk] = j
		}
		queued[keys[i]] = j
		jobs = append(jobs, j)
	}
	s.execute(jobs)

	out := make([]*pmd.Result, len(cells))
	for i, key := range keys {
		if r := s.cache[key]; r != nil {
			s.mHits.Inc()
			out[i] = r
			continue
		}
		j := queued[key]
		if j.err != nil {
			return nil, j.err
		}
		s.mMisses.Inc()
		s.mCellSeconds.Add(j.secs)
		switch tk := j.cell.tape(); {
		case recorder[tk] != j:
			s.mReplays.Inc()
		case j.tape.Complete():
			s.tapes[tk] = j.tape
			s.mRecords.Inc()
		}
		s.cache[key] = j.res
		out[i] = j.res
	}
	return out, nil
}

// execute runs the jobs (in request order) with at most workers() of them
// in flight and returns when none is. After a failure no job requested
// later than the failed one is started.
func (s *Suite) execute(jobs []*job) {
	limit := min(s.workers(), len(jobs))
	if limit <= 1 {
		for _, j := range jobs {
			if s.run(j); j.err != nil {
				return
			}
		}
		return
	}
	finished := make(chan *job)
	for inFlight := 0; ; {
		for _, j := range jobs {
			if inFlight == limit {
				break
			}
			if j.started || (j.after != nil && !j.after.done) {
				continue
			}
			j.started = true
			inFlight++
			go func(j *job) {
				s.run(j)
				finished <- j
			}(j)
		}
		if inFlight == 0 {
			return
		}
		j := <-finished
		inFlight--
		j.done = true
		if j.err != nil {
			if i := slices.Index(jobs, j); i >= 0 {
				jobs = jobs[:i]
			}
		}
	}
}

// run simulates one cell. It is the only call of pmd.Run in the package
// and touches nothing of the suite that a batch mutates.
func (s *Suite) run(j *job) {
	start := time.Now()
	j.res, j.err = pmd.Run(j.cell.Cluster, s.Cfg.Cost, pmd.Config{
		System: s.sys, MD: s.Cfg.MD, Steps: j.cell.Steps,
		Middleware: j.cell.Middleware, ModernCollectives: j.cell.Modern,
		Faults:      s.faults,
		Decomp:      j.cell.Decomp,
		Tape:        j.tape,
		HostWorkers: s.workers(),
	})
	j.secs = time.Since(start).Seconds()
}
