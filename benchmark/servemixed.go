package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/benchmark/bstat"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serveBlock is how many jobs a client runs between looks at the
// wall-time cap.
const serveBlock = 21

// stateRoot picks where serve state directories go: /dev/shm when it is a
// tmpfs this process can write, else the temp directory (run.sh points
// that into the checkout). On tmpfs the journal, checkpoint and store
// fsyncs cost no disk latency — by design: the disk is the host's, not
// this code's, and its variance drowned the service's own cost.
func stateRoot() (dir string, tmpfs bool) {
	const shm = "/dev/shm"
	if mounts, err := os.ReadFile("/proc/mounts"); err == nil {
		for _, line := range strings.Split(string(mounts), "\n") {
			f := strings.Fields(line)
			if len(f) >= 3 && f[1] == shm && f[2] == "tmpfs" {
				if probe, err := os.MkdirTemp(shm, "hostbench-probe-"); err == nil {
					_ = os.Remove(probe)
					return shm, true
				}
			}
		}
	}
	return os.TempDir(), false
}

// serveFixture is one full construction of the serve_mixed workload: an
// open server on a fresh state directory and a reference environment
// whose systems are all built.
type serveFixture struct {
	srv   *serve.Server
	env   *serve.Env // direct execution, outside the server
	dir   string
	base  string // http://host:port
	specs []serve.JobSpec
}

func openServe(o options, root string) (*serveFixture, error) {
	dir, err := os.MkdirTemp(root, "hostbench-serve-")
	if err != nil {
		return nil, fmt.Errorf("create state dir: %w", err)
	}
	srv, err := serve.Open(serve.Config{
		Addr: "127.0.0.1:0", StateDir: dir,
		Workers: o.workers, QueueDepth: 64,
		StoreMaxBytes: 1 << 30, // never evict: a repeat must be a store hit
	})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, fmt.Errorf("open server: %w", err)
	}
	f := &serveFixture{srv: srv, env: serve.NewEnv(), dir: dir, base: "http://" + srv.Addr(), specs: warmSpecs(o.workers, o.sz)}
	for _, spec := range f.specs {
		if _, err := f.env.ComputeReference(spec); err != nil {
			f.close()
			return nil, fmt.Errorf("build system atoms=%d seed=%d: %w", spec.Atoms, spec.Seed, err)
		}
	}
	return f, nil
}

// close shuts the server down and removes its state directory.
func (f *serveFixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = f.srv.Close(ctx) // nothing is in flight; the directory goes either way
	_ = os.RemoveAll(f.dir)
}

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	spec     serve.JobSpec
	computed bool // accepted and executed (202), not answered from the store
	traced   bool
	failed   string // why, when the job counts as failed
	sum      [sha256.Size]byte
	latency  float64 // ms, submit to result bytes
	submit   float64 // ms, POST round trip
	wait     float64 // ms, long-poll until done
	fetch    float64 // ms, GET result
}

type serveClient struct {
	http   *http.Client
	base   string
	tenant string
}

type submitResponse struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Error  *serve.JobError `json:"error"`
}

func (c *serveClient) get(url string) (int, []byte, error) {
	resp, err := c.http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// do runs one job the way a user of the service does: POST, long-poll
// until done, GET the result bytes.
func (c *serveClient) do(spec serve.JobSpec, tr *tracer, parent int) jobOutcome {
	out := jobOutcome{spec: spec, traced: tr != nil}
	job := tr.start("serve.job", parent)
	defer tr.end(job)
	body, err := json.Marshal(map[string]interface{}{"tenant": c.tenant, "spec": spec})
	if err != nil {
		out.failed = "encode: " + err.Error()
		return out
	}
	t0 := time.Now()
	sp := tr.start("serve.submit", job)
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	var sub submitResponse
	code := 0
	if err == nil {
		code = resp.StatusCode
		// Read to the end so the connection goes back to the pool.
		var buf []byte
		if buf, err = io.ReadAll(resp.Body); err == nil {
			err = json.Unmarshal(buf, &sub)
		}
		resp.Body.Close()
	}
	tr.end(sp)
	t1 := time.Now()
	switch {
	case err != nil:
		out.failed = "submit: " + err.Error()
		return out
	case code == http.StatusAccepted:
		out.computed = true
	case code == http.StatusOK && sub.Cached:
	default:
		out.failed = fmt.Sprintf("submit: HTTP %d status %q", code, sub.Status)
		return out
	}
	if out.computed {
		sp = tr.start("serve.wait", job)
		for status := sub.Status; status != serve.StatusDone; {
			var st submitResponse
			code, buf, err := c.get(c.base + "/v1/jobs/" + sub.ID + "?wait=10s")
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("HTTP %d", code)
			}
			if err == nil {
				err = json.Unmarshal(buf, &st)
			}
			if err == nil && (st.Status == serve.StatusFailed || st.Status == serve.StatusCanceled) {
				err = fmt.Errorf("job %s", st.Status)
			}
			if err != nil {
				tr.end(sp)
				out.failed = "wait: " + err.Error()
				return out
			}
			status = st.Status
		}
		tr.end(sp)
	}
	t2 := time.Now()
	sp = tr.start("serve.fetch", job)
	code, payload, err := c.get(c.base + "/v1/jobs/" + sub.ID + "/result")
	tr.end(sp)
	t3 := time.Now()
	if err != nil || code != http.StatusOK {
		out.failed = fmt.Sprintf("fetch: HTTP %d %v", code, err)
		return out
	}
	out.sum = sha256.Sum256(payload)
	out.submit = t1.Sub(t0).Seconds() * 1e3
	out.wait = t2.Sub(t1).Seconds() * 1e3
	out.fetch = t3.Sub(t2).Seconds() * 1e3
	out.latency = t3.Sub(t0).Seconds() * 1e3
	return out
}

// serveLoad drives every client's list through the server in a closed
// loop — a client sends its next job only when the previous one's result
// bytes are in — and returns each client's outcomes, the wall seconds of
// the phase, and whether the wall cap cut a list short. With a tracer,
// every other client is traced.
func serveLoad(f *serveFixture, lists [][]serveJob, tr *tracer) (outs [][]jobOutcome, wall float64, truncated bool) {
	outs = make([][]jobOutcome, len(lists))
	var cut atomic.Bool
	phase := tr.start("serve_mixed.phase", -1)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &serveClient{
				http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
				base: f.base, tenant: fmt.Sprintf("client-%d", c),
			}
			defer cl.http.CloseIdleConnections()
			// Every list holds the same cost-driving combinations, so the
			// traced (even) and untraced (odd) clients of a traced run do
			// comparable work side by side.
			t := tr
			if c%2 == 1 {
				t = nil
			}
			for i, job := range lists[c] {
				if i > 0 && i%serveBlock == 0 && capped(t0) {
					cut.Store(true)
					break
				}
				out := cl.do(job.spec, t, phase)
				// A repeat must be answered from the store with the bytes
				// its original returned.
				if job.repeatOf >= 0 && out.failed == "" {
					switch orig := outs[c][job.repeatOf]; {
					case out.computed:
						out.failed = "repeat was recomputed, not a store hit"
					case out.sum != orig.sum:
						out.failed = "repeat returned other bytes than its original"
					}
				}
				outs[c] = append(outs[c], out)
			}
		}(c)
	}
	wg.Wait()
	wall = time.Since(t0).Seconds()
	tr.end(phase)
	return outs, wall, cut.Load()
}

// serveVerify recomputes one in every n computed results directly and
// marks a served result that differs as failed.
func serveVerify(f *serveFixture, outs [][]jobOutcome, n int) (checked int) {
	k := 0
	for c := range outs {
		for i := range outs[c] {
			o := &outs[c][i]
			if !o.computed || o.failed != "" {
				continue
			}
			if k++; k%n != 0 {
				continue
			}
			checked++
			want, err := f.env.ComputeReference(o.spec)
			if err != nil {
				o.failed = "reference: " + err.Error()
			} else if sha256.Sum256(want) != o.sum {
				o.failed = "served bytes differ from the direct computation"
			}
		}
	}
	return checked
}

// serveWarm runs the warm-up block through the server, untimed, so its
// environment has every system built.
func serveWarm(f *serveFixture) error {
	cl := &serveClient{http: &http.Client{}, base: f.base, tenant: "warm"}
	defer cl.http.CloseIdleConnections()
	for _, spec := range f.specs {
		if out := cl.do(spec, nil, -1); out.failed != "" {
			return fmt.Errorf("warm-up job atoms=%d seed=%d: %s", spec.Atoms, spec.Seed, out.failed)
		}
	}
	return nil
}

// serveTally counts the outcomes into the report and returns the latency
// samples the metrics are medians of.
type serveTally struct {
	computed, hits       []float64 // latency, ms
	submit, wait, fetch  []float64 // of computed jobs
	tracedLat, plainLat  []float64 // computed jobs by tracing state
	computedSpecs        []jobOutcome
	attempted, failedOps int
}

func tallyServe(r *report, outs [][]jobOutcome) serveTally {
	var t serveTally
	reasons := map[string]int{}
	for _, list := range outs {
		for _, o := range list {
			t.attempted++
			if o.failed != "" {
				t.failedOps++
				reasons[o.failed]++
				continue
			}
			if !o.computed {
				t.hits = append(t.hits, o.latency)
				continue
			}
			t.computed = append(t.computed, o.latency)
			t.submit = append(t.submit, o.submit)
			t.wait = append(t.wait, o.wait)
			t.fetch = append(t.fetch, o.fetch)
			t.computedSpecs = append(t.computedSpecs, o)
			if o.traced {
				t.tracedLat = append(t.tracedLat, o.latency)
			} else {
				t.plainLat = append(t.plainLat, o.latency)
			}
		}
	}
	r.attempted, r.failed = t.attempted, t.failedOps
	for why, n := range reasons {
		r.note("%d job(s) failed: %s", n, why)
	}
	return t
}

// runServeMixed is the untraced serve_mixed run.
func runServeMixed(o options) (*report, error) {
	r := newReport(wServeMixed, o, false)
	sz := o.sz
	root, tmpfs := stateRoot()
	r.note("state dir under %s (tmpfs=%t)", root, tmpfs)

	// Only one server is open at a time, so the closes between the timed
	// constructions keep this loop from sharing setupMedian.
	var f *serveFixture
	var setups []float64
	for i := 0; i < sz.setupReps; i++ {
		if f != nil {
			f.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if f, err = openServe(o, root); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setup := bstat.Median(setups)
	defer f.close()
	if err := serveWarm(f); err != nil {
		return nil, err
	}

	lists := serveStream(o.seed, o.workers, sz)
	a0 := totalAlloc()
	outs, wall, cut := serveLoad(f, lists, nil)
	alloc := totalAlloc() - a0
	r.truncated = cut
	checked := serveVerify(f, outs, sz.serveVerify)
	t := tallyServe(r, outs)
	if len(t.computed) == 0 {
		return nil, fmt.Errorf("serve_mixed: no job was computed (%d failed)", t.failedOps)
	}
	n := float64(t.attempted)
	r.blocks("op_ms", t.computed)
	r.scalar("jobs_per_s", n/wall)
	r.scalar("alloc_mb_per_op", float64(alloc)/mib/n)
	r.scalar("setup_s", setup)
	r.check("hits_and_references", true, t.failedOps == 0,
		"%d repeats returned their original's bytes; %d results equal the direct computation", len(t.hits), checked)
	return r, nil
}

// traceServeMixed is the traced serve_mixed run: the same lists with every
// other client traced, then a sample of the specs executed directly and
// the store timed alone.
func traceServeMixed(o options, tr *tracer) (*report, error) {
	r := newReport(wServeMixed, o, true)
	sz := o.sz
	from := snapHost()
	root, tmpfs := stateRoot()
	f, err := openServe(o, root)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if err := serveWarm(f); err != nil {
		return nil, err
	}
	outs, _, _ := serveLoad(f, serveStream(o.seed, o.workers, sz), tr)
	serveVerify(f, outs, sz.serveVerify)
	t := tallyServe(r, outs)
	if len(t.computed) == 0 || len(t.hits) == 0 {
		return nil, fmt.Errorf("serve_mixed: %d computed and %d hit jobs (%d failed)", len(t.computed), len(t.hits), t.failedOps)
	}
	r.scalar("serve.submit_ms", bstat.Median(t.submit))
	r.scalar("serve.wait_ms", bstat.Median(t.wait))
	r.scalar("serve.fetch_ms", bstat.Median(t.fetch))
	r.scalar("serve.hit_ms", bstat.Median(t.hits))
	r.scalar("serve.op_p90_ms", bstat.Percentile(t.computed, 0.9))
	r.note("serve.op_p90_ms over %d computed jobs", len(t.computed))
	r.scalar("serve.hit_share", float64(len(t.hits))/float64(t.attempted))

	// The same specs outside the server, W at a time like the server's
	// workers: what a job costs without admission, journal, checkpoints,
	// store and HTTP.
	var sample []jobOutcome
	for i, o := range t.computedSpecs {
		if i%sz.serveExecEach == 0 {
			sample = append(sample, o)
		}
	}
	direct := make([]float64, len(sample))
	execErrs := make([]error, o.workers)
	rootSpan := tr.start("serve_mixed.direct", -1)
	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sample) && execErrs[w] == nil; i += o.workers {
				id := tr.start("serve.Env.Execute", rootSpan)
				t0 := time.Now()
				_, _, _, execErrs[w] = f.env.Execute(sample[i].spec, "", nil, nil)
				direct[i] = time.Since(t0).Seconds() * 1e3
				tr.end(id)
			}
		}(w)
	}
	wg.Wait()
	tr.end(rootSpan)
	for _, err := range execErrs {
		if err != nil {
			return nil, fmt.Errorf("direct execution: %w", err)
		}
	}
	// Job costs span two orders of magnitude, so the overhead is the median
	// of each spec's own difference, not a difference of two medians.
	var extra []float64
	for i, o := range sample {
		extra = append(extra, o.latency-direct[i])
	}
	r.scalar("serve.exec_ms", bstat.Median(direct))
	r.scalar("serve.overhead_ms", bstat.Median(extra))
	r.note("serve.exec_ms and serve.overhead_ms over the same %d specs", len(sample))

	putMS, getMS, err := storeProbe(root, tr)
	if err != nil {
		return nil, err
	}
	r.scalar("serve.store_put_ms", putMS)
	r.scalar("serve.store_get_ms", getMS)
	sum := func(name string) float64 {
		var v float64
		for _, p := range f.srv.Registry().Snapshot() {
			if p.Name == name {
				v += p.Value
			}
		}
		return v
	}
	r.scalar("serve.accepted", sum("repro_serve_accepted_total"))
	r.scalar("serve.coalesced", sum("repro_serve_coalesced_total"))
	r.scalar("serve.shed", sum("repro_serve_shed_total"))
	r.scalar("serve.retried", sum("repro_serve_retries_total"))
	tmp := 0.0
	if tmpfs {
		tmp = 1
	}
	r.scalar("serve.state_dir_tmpfs", tmp)
	r.scalar("trace.overhead_share", overheadShare(t.tracedLat, t.plainLat))
	r.hostMetrics(from)
	r.check("hits_and_references", true, t.failedOps == 0, "%d repeats returned their original's bytes", len(t.hits))
	return r, nil
}

// storeProbe times the result store alone, on the file system the server's
// state is on: median Put and Get of a result-sized payload.
func storeProbe(root string, tr *tracer) (putMS, getMS float64, err error) {
	dir, err := os.MkdirTemp(root, "hostbench-store-")
	if err != nil {
		return 0, 0, fmt.Errorf("create store dir: %w", err)
	}
	defer os.RemoveAll(dir)
	st, err := serve.OpenStore(filepath.Join(dir, "store"), 64<<20, obs.NewRegistry())
	if err != nil {
		return 0, 0, fmt.Errorf("open store: %w", err)
	}
	payload := bytes.Repeat([]byte("x"), 2048) // a run result with its profile
	span := tr.start("serve.store", -1)
	defer tr.end(span)
	var puts, gets []float64
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("hostbench probe %d", i)
		id := tr.start("serve.Store.Put", span)
		t0 := time.Now()
		err := st.Put(key, payload)
		puts = append(puts, time.Since(t0).Seconds()*1e3)
		tr.end(id)
		if err != nil {
			return 0, 0, fmt.Errorf("store put: %w", err)
		}
		id = tr.start("serve.Store.Get", span)
		t0 = time.Now()
		_, ok := st.Get(key)
		gets = append(gets, time.Since(t0).Seconds()*1e3)
		tr.end(id)
		if !ok {
			return 0, 0, fmt.Errorf("store get: entry %q missing", key)
		}
	}
	return bstat.Median(puts), bstat.Median(gets), nil
}
