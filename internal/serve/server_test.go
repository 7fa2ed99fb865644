package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func testConfig(dir string) Config {
	return Config{
		Addr:            "127.0.0.1:0",
		StateDir:        dir,
		Workers:         2,
		QueueDepth:      8,
		DefaultDeadline: time.Minute,
		Obs:             obs.NewRegistry(),
	}
}

func testServer(t *testing.T, mut func(*Config)) (*Server, string) {
	t.Helper()
	cfg := testConfig(t.TempDir())
	if mut != nil {
		mut(&cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return s, "http://" + s.Addr()
}

func postJob(t *testing.T, base, tenant string, spec JobSpec, deadlineMS int64) (int, jobResponse, http.Header) {
	t.Helper()
	body, _ := json.Marshal(submitRequest{Tenant: tenant, Spec: spec, DeadlineMS: deadlineMS})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var jr jobResponse
	_ = json.NewDecoder(resp.Body).Decode(&jr)
	return resp.StatusCode, jr, resp.Header
}

func getStatus(t *testing.T, base, id string) jobResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	defer resp.Body.Close()
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return jr
}

func waitStatus(t *testing.T, base, id, want string, timeout time.Duration) jobResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		jr := getStatus(t, base, id)
		if jr.Status == want {
			return jr
		}
		if jr.Status == StatusFailed && want != StatusFailed {
			t.Fatalf("job %s failed waiting for %s: %+v", id, want, jr.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, jr.Status, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET result: %d %s", resp.StatusCode, body)
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read result: %v", err)
	}
	return buf
}

func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	buf, _ := io.ReadAll(resp.Body)
	return string(buf)
}

// small job specs shared across tests (48 atoms keeps system builds fast;
// each server caches its relaxed box across jobs).
func runSpec(steps int) JobSpec {
	return JobSpec{Kind: KindRun, Atoms: 48, Steps: steps, Procs: 4}
}

func analysisSpec() JobSpec {
	return JobSpec{Kind: KindAnalysis, Atoms: 48, Steps: 2, Observable: "rdf"}
}

func sweepSpec() JobSpec {
	return JobSpec{Kind: KindSweep, Atoms: 48, Steps: 1, Procs: 4, Nets: []string{"score", "tcp"}}
}

// TestServeStatusLongPoll: GET /v1/jobs/<id>?wait=<dur> blocks until the
// job reaches a terminal state or the bounded wait expires, and answers
// with the same 200 + snapshot shape as an immediate poll.
func TestServeStatusLongPoll(t *testing.T) {
	_, base := testServer(t, func(c *Config) { c.Workers = 1 })

	// A poll whose wait covers the job's runtime returns the terminal
	// state in one round-trip, woken by completion rather than the timer.
	code, jr, _ := postJob(t, base, "a", runSpec(2), 0)
	if code != http.StatusAccepted {
		t.Fatalf("POST: got %d, want 202", code)
	}
	start := time.Now()
	resp, err := http.Get(base + "/v1/jobs/" + jr.ID + "?wait=20s")
	if err != nil {
		t.Fatalf("GET ?wait: %v", err)
	}
	var got jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("long poll: got %d, want 200", resp.StatusCode)
	}
	if got.Status != StatusDone {
		t.Fatalf("long poll ended in %q, want %q", got.Status, StatusDone)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("long poll was not woken by completion (took %v)", elapsed)
	}

	// An expired wait reports the in-flight status instead of blocking:
	// with the lone worker parked on a longer run, a fresh job is still
	// queued or running when a 1ms wait runs out — and the response is
	// still a 200. (Parking the worker first makes this deterministic:
	// a relaxed-box-cached 3-step run alone can finish inside 1ms.)
	_, blocker, _ := postJob(t, base, "a", runSpec(40), 0)
	_, slow, _ := postJob(t, base, "a", runSpec(3), 0)
	resp, err = http.Get(base + "/v1/jobs/" + slow.ID + "?wait=1ms")
	if err != nil {
		t.Fatalf("GET short wait: %v", err)
	}
	got = jobResponse{}
	_ = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("short wait: got %d, want 200", resp.StatusCode)
	}
	if got.Status == StatusDone || got.Status == StatusFailed {
		t.Fatalf("1ms wait outlived a multi-step run: status %q", got.Status)
	}
	waitStatus(t, base, blocker.ID, StatusDone, 30*time.Second)
	waitStatus(t, base, slow.ID, StatusDone, 30*time.Second)

	// Malformed and negative waits are rejected before any blocking.
	for _, wv := range []string{"bogus", "-5s"} {
		resp, err := http.Get(base + "/v1/jobs/" + slow.ID + "?wait=" + wv)
		if err != nil {
			t.Fatalf("GET wait=%s: %v", wv, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("wait=%s: got %d, want 400", wv, resp.StatusCode)
		}
	}
}

// TestServeRunByteIdentity: the core contract — bytes served for an
// accepted run equal a direct computation of the same spec, and an
// identical resubmission is answered from the store without requeueing.
func TestServeRunByteIdentity(t *testing.T) {
	_, base := testServer(t, nil)
	spec := runSpec(3)

	code, jr, _ := postJob(t, base, "alice", spec, 0)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d %+v, want 202", code, jr)
	}
	waitStatus(t, base, jr.ID, StatusDone, 60*time.Second)
	got := getResult(t, base, jr.ID)

	want, err := NewEnv().ComputeReference(spec)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served bytes differ from direct computation:\n got  %s\n want %s", got, want)
	}

	// Idempotent resubmission (even from another tenant) hits the cache.
	code, jr2, _ := postJob(t, base, "bob", spec, 0)
	if code != http.StatusOK || !jr2.Cached || jr2.ID != jr.ID {
		t.Fatalf("resubmit = %d %+v, want 200 cached with same id", code, jr2)
	}
}

func TestServeAnalysisAndSweep(t *testing.T) {
	_, base := testServer(t, nil)
	env := NewEnv()
	for _, spec := range []JobSpec{analysisSpec(), sweepSpec()} {
		code, jr, _ := postJob(t, base, "alice", spec, 0)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s = %d, want 202", spec.Kind, code)
		}
		waitStatus(t, base, jr.ID, StatusDone, 60*time.Second)
		got := getResult(t, base, jr.ID)
		want, err := env.ComputeReference(spec)
		if err != nil {
			t.Fatalf("reference %s: %v", spec.Kind, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s bytes differ from direct computation", spec.Kind)
		}
	}
}

// blockingFault returns a FaultInject hook that parks matching jobs on a
// channel — the test's handle on "a worker is busy right now".
func blockingFault(kind JobKind) (func(JobSpec, int) error, chan struct{}) {
	release := make(chan struct{})
	return func(spec JobSpec, attempt int) error {
		if spec.Kind == kind {
			<-release
		}
		return nil
	}, release
}

func TestServeCoalesceInflight(t *testing.T) {
	hook, release := blockingFault(KindAnalysis)
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	_, base := testServer(t, func(c *Config) {
		c.Workers = 1
		c.FaultInject = hook
	})
	t.Cleanup(unblock)

	spec := analysisSpec()
	code, jr1, _ := postJob(t, base, "alice", spec, 0)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	waitStatus(t, base, jr1.ID, StatusRunning, 10*time.Second)

	// Identical spec from a different tenant coalesces onto the running job.
	code, jr2, _ := postJob(t, base, "bob", spec, 0)
	if code != http.StatusAccepted || !jr2.Coalesced || jr2.ID != jr1.ID {
		t.Fatalf("dup submit = %d %+v, want 202 coalesced onto %s", code, jr2, jr1.ID)
	}

	unblock()
	waitStatus(t, base, jr1.ID, StatusDone, 30*time.Second)
	if txt := metricsText(t, base); !strings.Contains(txt, "repro_serve_coalesced_total") {
		t.Error("coalesced counter missing from /metrics")
	}
}

func TestServeShedWithRetryAfter(t *testing.T) {
	hook, release := blockingFault(KindAnalysis)
	_, base := testServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
		c.FaultInject = hook
	})
	t.Cleanup(func() { close(release) })

	// Distinct specs so nothing coalesces: seed varies.
	mk := func(seed uint64) JobSpec {
		s := analysisSpec()
		s.Seed = seed
		return s
	}
	code, _, _ := postJob(t, base, "alice", mk(1), 0) // occupies the worker
	if code != http.StatusAccepted {
		t.Fatalf("submit 1 = %d", code)
	}
	// The worker may not have dequeued job 1 yet, so admit up to depth and
	// expect the shed within a couple of extra submissions.
	shedAt := 0
	var hdr http.Header
	var jr jobResponse
	for i := uint64(2); i <= 4; i++ {
		code, jr, hdr = postJob(t, base, "alice", mk(i), 0)
		if code == http.StatusTooManyRequests {
			shedAt = int(i)
			break
		}
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d, want 202 or 429", i, code)
		}
	}
	if shedAt == 0 {
		t.Fatal("no submission shed despite depth 1")
	}
	ra := hdr.Get("Retry-After")
	if sec, err := strconv.Atoi(ra); err != nil || sec < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", ra)
	}
	if jr.Error == nil || jr.Error.Kind != KindOverloaded {
		t.Fatalf("shed body error = %+v, want overloaded", jr.Error)
	}
	// Other tenants are isolated from alice's backlog.
	if code, _, _ := postJob(t, base, "bob", mk(9), 0); code != http.StatusAccepted {
		t.Fatalf("bob shed by alice's queue: %d", code)
	}
}

func TestServeRetryTransientThenSucceed(t *testing.T) {
	fails := 2
	_, base := testServer(t, func(c *Config) {
		c.MaxRetries = 3
		c.RetryBaseDelay = time.Millisecond
		c.FaultInject = func(spec JobSpec, attempt int) error {
			if spec.Kind == KindAnalysis && attempt <= fails {
				return Errf(KindTransient, "injected fault, attempt %d", attempt)
			}
			return nil
		}
	})
	code, jr, _ := postJob(t, base, "alice", analysisSpec(), 0)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	final := waitStatus(t, base, jr.ID, StatusDone, 30*time.Second)
	if final.Attempts != fails+1 {
		t.Fatalf("attempts = %d, want %d", final.Attempts, fails+1)
	}
	if txt := metricsText(t, base); !strings.Contains(txt, "repro_serve_retries_total") {
		t.Error("retries counter missing from /metrics")
	}
}

// TestServePanicIsolation: a worker panic fails only that job; the server
// keeps serving and keeps computing other jobs.
func TestServePanicIsolation(t *testing.T) {
	_, base := testServer(t, func(c *Config) {
		c.MaxRetries = 0
		c.FaultInject = func(spec JobSpec, attempt int) error {
			if spec.Kind == KindSweep {
				panic("injected worker crash")
			}
			return nil
		}
	})
	code, jr, _ := postJob(t, base, "alice", sweepSpec(), 0)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	final := waitStatus(t, base, jr.ID, StatusFailed, 30*time.Second)
	if final.Error == nil || final.Error.Kind != KindWorkerCrash {
		t.Fatalf("error = %+v, want worker_crash", final.Error)
	}
	// The server survived: health is green and new work completes.
	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %v %v", resp, err)
	}
	resp.Body.Close()
	code, jr2, _ := postJob(t, base, "alice", analysisSpec(), 0)
	if code != http.StatusAccepted {
		t.Fatalf("post-panic submit = %d", code)
	}
	waitStatus(t, base, jr2.ID, StatusDone, 30*time.Second)
}

// TestServeWorkerCrashRetries: a crash on the first attempt is retryable;
// the job succeeds on the second.
func TestServeWorkerCrashRetries(t *testing.T) {
	_, base := testServer(t, func(c *Config) {
		c.MaxRetries = 2
		c.RetryBaseDelay = time.Millisecond
		c.FaultInject = func(spec JobSpec, attempt int) error {
			if spec.Kind == KindAnalysis && attempt == 1 {
				panic("first-attempt crash")
			}
			return nil
		}
	})
	code, jr, _ := postJob(t, base, "alice", analysisSpec(), 0)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	final := waitStatus(t, base, jr.ID, StatusDone, 30*time.Second)
	if final.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", final.Attempts)
	}
}

func TestServeDeadlineExpiresInQueue(t *testing.T) {
	hook, release := blockingFault(KindAnalysis)
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	_, base := testServer(t, func(c *Config) {
		c.Workers = 1
		c.FaultInject = hook
	})
	t.Cleanup(unblock)

	blocker := analysisSpec()
	code, _, _ := postJob(t, base, "alice", blocker, 0)
	if code != http.StatusAccepted {
		t.Fatalf("blocker submit = %d", code)
	}
	tight := sweepSpec()
	code, jr, _ := postJob(t, base, "alice", tight, 50)
	if code != http.StatusAccepted {
		t.Fatalf("tight submit = %d", code)
	}
	time.Sleep(80 * time.Millisecond)
	unblock()
	final := waitStatus(t, base, jr.ID, StatusFailed, 30*time.Second)
	if final.Error == nil || final.Error.Kind != KindDeadline {
		t.Fatalf("error = %+v, want deadline", final.Error)
	}
}

func TestServeCancelQueued(t *testing.T) {
	hook, release := blockingFault(KindAnalysis)
	_, base := testServer(t, func(c *Config) {
		c.Workers = 1
		c.FaultInject = hook
	})
	t.Cleanup(func() { close(release) })

	code, _, _ := postJob(t, base, "alice", analysisSpec(), 0)
	if code != http.StatusAccepted {
		t.Fatalf("blocker submit = %d", code)
	}
	code, jr, _ := postJob(t, base, "alice", sweepSpec(), 0)
	if code != http.StatusAccepted {
		t.Fatalf("victim submit = %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+jr.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	final := waitStatus(t, base, jr.ID, StatusCanceled, 10*time.Second)
	if final.Error == nil || final.Error.Kind != KindCanceled {
		t.Fatalf("error = %+v, want canceled", final.Error)
	}
}

// TestServeCancelRacesDequeue races a DELETE against the worker dequeuing
// the same job. Whichever wins, the job's event stream carries exactly one
// terminal frame, as its last, and a job cancelled while queued was never
// started: no running frame precedes its terminal frame and it has no
// attempts. Run it under -race -count 20.
func TestServeCancelRacesDequeue(t *testing.T) {
	// The blocker fails the moment it is released, so the worker dequeues
	// the victim within microseconds of the release.
	release := make(chan struct{})
	hook := func(spec JobSpec, attempt int) error {
		if spec.Kind == KindAnalysis {
			<-release
			return Errf(KindBadRequest, "blocker released")
		}
		return nil
	}
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	s, base := testServer(t, func(c *Config) {
		c.Workers = 1
		c.FaultInject = hook
	})
	t.Cleanup(unblock)

	if code, _, _ := postJob(t, base, "alice", analysisSpec(), 0); code != http.StatusAccepted {
		t.Fatalf("blocker submit = %d", code)
	}
	code, jr, _ := postJob(t, base, "alice", sweepSpec(), 0)
	if code != http.StatusAccepted {
		t.Fatalf("victim submit = %d", code)
	}
	// Subscribed while the victim is still queued behind the blocker, so
	// the stream holds every frame of its life.
	j := s.lookup(jr.ID)
	stream, ch, cancel := j.subscribe(0)
	defer cancel()
	if ch == nil {
		t.Fatal("the victim finished behind a blocked worker")
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Spread over about one DELETE round trip, so that across -count
		// runs the DELETE lands before, during and after the dequeue.
		time.Sleep(time.Duration(rand.Intn(400)) * time.Microsecond)
		unblock() // the worker fails the blocker and dequeues the victim
	}()
	go func() {
		defer wg.Done()
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+jr.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("DELETE: %v", err)
			return
		}
		resp.Body.Close()
	}()
	for e := range ch {
		stream = append(stream, e)
	}
	wg.Wait()

	var terminal event
	terminals, running := 0, false
	for k, e := range stream {
		if terminalStatus(e.typ) {
			terminals++
			terminal = e
			if k != len(stream)-1 {
				t.Errorf("terminal %s frame at %d of %d", e.typ, k+1, len(stream))
			}
			continue
		}
		var pe progressEventData
		if e.typ == EventProgress && json.Unmarshal(e.data, &pe) == nil && pe.Status == StatusRunning {
			running = true
		}
	}
	if terminals != 1 {
		t.Fatalf("%d terminal frames in %d, want exactly one", terminals, len(stream))
	}
	st, attempts, _, jerr := j.snapshot()
	if st != terminal.typ {
		t.Fatalf("poll says %q after the %s frame", st, terminal.typ)
	}
	t.Logf("outcome %s (%v), %d attempts, %d frames", st, jerr, attempts, len(stream))
	queuedCancel := st == StatusCanceled && jerr != nil && strings.Contains(jerr.Msg, "while queued")
	if queuedCancel && (running || attempts != 0) {
		t.Fatalf("cancelled while queued after a running frame (%v) or with %d attempts", running, attempts)
	}
}

// TestServePreemptQuantumResume: with a vanishingly small quantum every
// attempt parks at a checkpoint boundary and requeues, so the run crosses
// several preempt/resume cycles — and still serves bytes identical to an
// uninterrupted computation, with the resume visible in resume_step.
func TestServePreemptQuantumResume(t *testing.T) {
	_, base := testServer(t, func(c *Config) {
		c.Workers = 1
		c.PreemptQuantum = time.Nanosecond
	})
	spec := runSpec(6)
	code, jr, _ := postJob(t, base, "alice", spec, 0)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	final := waitStatus(t, base, jr.ID, StatusDone, 120*time.Second)
	if final.ResumeStep <= 0 {
		t.Fatalf("resume_step = %d, want > 0 (job must have resumed mid-run, not restarted)", final.ResumeStep)
	}
	got := getResult(t, base, jr.ID)
	want, err := NewEnv().ComputeReference(spec)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("preempted run differs from uninterrupted computation:\n got  %s\n want %s", got, want)
	}
	if txt := metricsText(t, base); !strings.Contains(txt, "repro_serve_preempted_total") {
		t.Error("preempted counter missing from /metrics")
	}
}

// TestServeAbortReplay: a simulated crash loses no accepted job — after
// reopening the state directory every journaled job completes with bytes
// identical to direct computation.
func TestServeAbortReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.Workers = 1
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	base := "http://" + s.Addr()

	long := runSpec(96)
	code, jrRun, _ := postJob(t, base, "alice", long, 0)
	if code != http.StatusAccepted {
		t.Fatalf("run submit = %d", code)
	}
	code, jrA, _ := postJob(t, base, "bob", analysisSpec(), 0)
	if code != http.StatusAccepted {
		t.Fatalf("analysis submit = %d", code)
	}
	code, jrS, _ := postJob(t, base, "bob", sweepSpec(), 0)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit = %d", code)
	}
	// Crash once the run has been picked up (usually mid-run; if the
	// machine is fast enough that it already finished, the two queued jobs
	// still exercise the replay path).
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, base, jrRun.ID).Status == StatusQueued {
		if time.Now().After(deadline) {
			t.Fatal("run never dequeued")
		}
		time.Sleep(2 * time.Millisecond)
	}

	s.Abort()
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still reachable after Abort")
	}

	cfg2 := testConfig(dir)
	s2, err := Open(cfg2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close(context.Background())
	base2 := "http://" + s2.Addr()

	env := NewEnv()
	for _, tc := range []struct {
		id   string
		spec JobSpec
	}{{jrRun.ID, long}, {jrA.ID, analysisSpec()}, {jrS.ID, sweepSpec()}} {
		waitStatus(t, base2, tc.id, StatusDone, 120*time.Second)
		got := getResult(t, base2, tc.id)
		want, err := env.ComputeReference(tc.spec)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("job %s (%s) differs from direct computation after crash+replay", tc.id, tc.spec.Kind)
		}
	}
	// Every journal entry was released once its job completed.
	files, err := os.ReadDir(cfg2.StateDir + "/jobs")
	if err != nil {
		t.Fatalf("read journal dir: %v", err)
	}
	if len(files) != 0 {
		t.Fatalf("journal not empty after all jobs completed: %d files", len(files))
	}
}

// TestServeGracefulCloseParksAndResumes: Close parks a mid-flight run
// (checkpoint + journal stay on disk), and reopening the state directory
// finishes it from the parked step — bytes still identical to an
// uninterrupted computation.
func TestServeGracefulCloseParksAndResumes(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.Workers = 1
	cfg.PreemptQuantum = time.Nanosecond // guarantees partial progress + requeues
	// Let the first two attempts through (≥1 resume cycle), then hold the
	// third until Close is underway — the run provably cannot complete
	// before the shutdown parks it.
	var attempts int32
	gate := make(chan struct{})
	cfg.FaultInject = func(spec JobSpec, attempt int) error {
		if spec.Kind == KindRun && atomic.AddInt32(&attempts, 1) >= 3 {
			<-gate
		}
		return nil
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	base := "http://" + s.Addr()

	spec := runSpec(10)
	code, jr, _ := postJob(t, base, "alice", spec, 0)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	// Wait until at least one preempt/resume cycle proves partial progress
	// is parked on disk.
	deadline := time.Now().Add(60 * time.Second)
	for getStatus(t, base, jr.ID).ResumeStep == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no resume observed before close")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	closeErr := make(chan error, 1)
	go func() { closeErr <- s.Close(ctx) }()
	// Release the held attempt only after Close has flagged the drain, so
	// it immediately parks at its next checkpoint boundary.
	for !s.stopRequested() {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	err = <-closeErr
	cancel()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}

	cfg2 := testConfig(dir) // no quantum: finishes in one attempt
	s2, err := Open(cfg2)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close(context.Background())
	base2 := "http://" + s2.Addr()

	final := waitStatus(t, base2, jr.ID, StatusDone, 120*time.Second)
	if final.ResumeStep <= 0 {
		t.Fatalf("resume_step = %d after reopen, want > 0 (parked progress must be reused)", final.ResumeStep)
	}
	got := getResult(t, base2, jr.ID)
	want, rerr := NewEnv().ComputeReference(spec)
	if rerr != nil {
		t.Fatalf("reference: %v", rerr)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("parked+resumed run differs from uninterrupted computation")
	}
}

// TestServeReplayStoreHit: a crash in the window between store.Put and
// journal removal must not recompute on replay — the store answers.
func TestServeReplayStoreHit(t *testing.T) {
	dir := t.TempDir()
	spec := analysisSpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	payload, err := NewEnv().ComputeReference(spec)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	// Stage the crash window by hand: result in the store, journal entry
	// still present.
	store, err := OpenStore(dir+"/store", 1<<20, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(spec.Key(), payload); err != nil {
		t.Fatal(err)
	}
	jnl, err := openJournal(dir + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	id := JobID(spec.Key())
	if err := jnl.append(journalEntry{
		ID: id, Tenant: "alice", Key: spec.Key(), Spec: spec,
		Deadline: 60_000, Accepted: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(dir)
	// Any recomputation would fail loudly.
	cfg.FaultInject = func(JobSpec, int) error {
		return Errf(KindInternal, "replay recomputed a stored result")
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close(context.Background())
	base := "http://" + s.Addr()

	final := waitStatus(t, base, id, StatusDone, 10*time.Second)
	if final.Status != StatusDone {
		t.Fatalf("replayed job status %q", final.Status)
	}
	if got := getResult(t, base, id); !bytes.Equal(got, payload) {
		t.Fatal("replayed result differs from stored payload")
	}
}

func TestServeValidationAndRouting(t *testing.T) {
	s, base := testServer(t, nil)

	code, jr, _ := postJob(t, base, "alice", JobSpec{Kind: "banana"}, 0)
	if code != http.StatusBadRequest {
		t.Fatalf("bad spec = %d %+v, want 400", code, jr)
	}
	resp, err := http.Get(base + "/v1/jobs/no-such-id")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", resp.StatusCode)
	}

	// Submissions during drain are refused with a clean 503 + Retry-After.
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	code, _, hdr := postJob(t, base, "alice", analysisSpec(), 0)
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("submit while closing = %d (Retry-After %q), want 503 with Retry-After", code, hdr.Get("Retry-After"))
	}
	s.mu.Lock()
	s.closing = false
	s.mu.Unlock()

	// statz is live JSON.
	resp, err = http.Get(base + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var statz map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&statz); err != nil {
		t.Fatalf("statz decode: %v", err)
	}
	for _, k := range []string{"jobs", "queue_depths", "store"} {
		if _, ok := statz[k]; !ok {
			t.Errorf("statz missing %q: %v", k, statz)
		}
	}
}

// TestServeResultEvictedIsHonestMiss: a done job whose result was evicted
// answers 410, never stale or wrong bytes; resubmitting recomputes.
func TestServeResultEvictedIsHonestMiss(t *testing.T) {
	srv, base := testServer(t, nil)
	spec := analysisSpec()
	code, jr, _ := postJob(t, base, "alice", spec, 0)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitStatus(t, base, jr.ID, StatusDone, 30*time.Second)
	// Nuke the stored entry out from under the done job.
	if err := os.Remove(srv.store.path(jr.ID)); err != nil {
		t.Fatalf("remove stored result: %v", err)
	}
	resp, err := http.Get(base + "/v1/jobs/" + jr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted result = %d, want 410", resp.StatusCode)
	}
}

// TestServeFairnessUnderBurst: a bursting tenant cannot starve a light
// one — the light tenant's job finishes while most of the burst is still
// queued.
func TestServeFairnessUnderBurst(t *testing.T) {
	gate := make(chan struct{})
	_, base := testServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 32
		c.FaultInject = func(spec JobSpec, attempt int) error {
			<-gate // serialize: each execution waits for the test's tick
			return nil
		}
	})
	burst := func(seed uint64) JobSpec {
		s := analysisSpec()
		s.Seed = seed
		return s
	}
	var burstIDs []string
	for i := uint64(1); i <= 6; i++ {
		code, jr, _ := postJob(t, base, "heavy", burst(i), 0)
		if code != http.StatusAccepted {
			t.Fatalf("burst submit %d = %d", i, code)
		}
		burstIDs = append(burstIDs, jr.ID)
	}
	code, light, _ := postJob(t, base, "light", burst(100), 0)
	if code != http.StatusAccepted {
		t.Fatalf("light submit = %d", code)
	}
	// Tick executions through one at a time until the light job is done.
	countDone := func() int {
		n := 0
		for _, id := range append(append([]string(nil), burstIDs...), light.ID) {
			if getStatus(t, base, id).Status == StatusDone {
				n++
			}
		}
		return n
	}
	lightDone := false
	for tick := 1; tick <= 4 && !lightDone; tick++ {
		gate <- struct{}{}
		deadline := time.Now().Add(20 * time.Second)
		for countDone() < tick && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		lightDone = getStatus(t, base, light.ID).Status == StatusDone
	}
	// Count the still-queued burst BEFORE opening the gate: afterwards the
	// tiny jobs drain instantly.
	remaining := 0
	for _, id := range burstIDs {
		if getStatus(t, base, id).Status != StatusDone {
			remaining++
		}
	}
	close(gate) // release the rest of the burst
	if !lightDone {
		t.Fatal("light tenant's job not served within the first few slots despite heavy's 6-job head start")
	}
	if remaining == 0 {
		t.Fatal("entire burst already done; fairness unobservable (test raced)")
	}
	for _, id := range burstIDs {
		waitStatus(t, base, id, StatusDone, 60*time.Second)
	}
}

func init() {
	// Keep test HTTP clients from reusing pooled conns into dead servers
	// across Abort tests.
	http.DefaultTransport.(*http.Transport).DisableKeepAlives = true
}
