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

// job is one cache-missing cell of a batch. The requesting goroutine owns
// every field except res, err and secs, which the goroutine executing the
// cell writes before it hands the job back.
type job struct {
	cell CellKey
	res  *pmd.Result
	err  error
	secs float64 // host seconds inside the cell
}

// RunCells is the suite's one way to execute cells: it returns the
// (cached) results of the requested cells, in request order, simulating
// the cache misses with at most Cfg.Workers of them in flight. Three rules
// keep figure bytes and RunStats independent of the worker count:
//
//   - All bookkeeping — run cache, whether the tape is recorded,
//     counters — happens here, on the requesting goroutine, in request
//     order. Goroutines executing cells receive a cell and return a
//     (result, error) pair.
//   - One tape per workload, with one trajectory: every miss of the
//     batch, at any rank count and under either decomposition, runs over
//     the suite's tape at once. The first miss while no kept run has
//     recorded the tape opens its trajectory; the tape counts as recorded
//     only if that miss is kept. A failed run leaves only fully evaluated
//     steps on the tape, which serve later runs bit for bit.
//   - The first error in request order is the batch's error, and nothing
//     requested later is kept: the suite is left as if the cells had
//     been requested one at a time up to the failure.
//
// A batch with at most one miss, or Workers = 1, runs inline on the caller
// in request order — no goroutine, no channel.
func (s *Suite) RunCells(cells []CellKey) ([]*pmd.Result, error) {
	keys := make([]string, len(cells))
	var jobs []*job
	queued := map[string]*job{} // this batch's misses by key
	var opener *job             // while no kept run recorded the tape, the job that opens its trajectory
	for i, c := range cells {
		keys[i] = c.String()
		if s.cache[keys[i]] != nil || queued[keys[i]] != nil {
			continue
		}
		j := &job{cell: c}
		if !s.recorded && opener == nil {
			opener = j
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
		if j == opener {
			s.recorded = true
			s.mRecords.Inc()
		} else {
			s.mReplays.Inc()
		}
		s.cache[key] = j.res
		out[i] = j.res
	}
	return out, nil
}

// execute runs the jobs (in request order) with at most workers() of them
// in flight and returns when none is. Once a job fails no job requested
// later is started.
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
	for next, inFlight := 0, 0; ; {
		for ; inFlight < limit && next < len(jobs); next++ {
			inFlight++
			go func(j *job) {
				s.run(j)
				finished <- j
			}(jobs[next])
		}
		if inFlight == 0 {
			return
		}
		j := <-finished
		inFlight--
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
		Middleware:  j.cell.Middleware,
		Faults:      s.faults,
		Decomp:      j.cell.Decomp,
		Tape:        s.tape,
		HostWorkers: s.workers(),
	})
	j.secs = time.Since(start).Seconds()
}
