// Command loadgen drives a serve.Server with concurrent multi-tenant
// load and verifies the service's contract end to end:
//
//   - every job the server ACCEPTED (202) eventually completes, and its
//     result bytes equal an independent direct computation of the same
//     spec — across crashes and restarts;
//   - every shed submission carries a clean 429 with a Retry-After hint;
//   - with a preemption quantum configured, long runs demonstrably park
//     and resume from their checkpoint (resume_step > 0) instead of
//     restarting;
//   - a corrupted store entry is never served: it reads as a miss and the
//     result is recomputed.
//
// In -chaos mode the harness additionally kills the server mid-load
// (simulated crash: connections drop, nothing flushes), flips bytes in
// random store files while it is down, and reopens the same state
// directory on a fresh port. Clients ride through the outage by
// resubmitting — submission is idempotent by spec — and the acceptance
// bar stays the same: nothing accepted is lost, nothing corrupt is
// served.
//
// Exits 0 and prints PASS when every check holds; prints FAIL and exits 1
// otherwise.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		duration = flag.Duration("duration", 30*time.Second, "load phase length")
		chaos    = flag.Bool("chaos", false, "kill/corrupt/restart the server mid-load")
		clients  = flag.Int("clients", 4, "concurrent client goroutines")
		seed     = flag.Int64("seed", 1, "workload randomization seed")
		state    = flag.String("state", "", "state directory (default: a temp dir)")
		quantum  = flag.Duration("quantum", 5*time.Millisecond, "server preemption quantum (0 disables; >0 required for the resume check)")
	)
	flag.Parse()

	dir := *state
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "loadgen-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
	}

	h := &harness{
		stateDir: dir,
		quantum:  *quantum,
		env:      serve.NewEnv(),
		refs:     map[string][]byte{},
		accepted: map[string]serve.JobSpec{},
		verified: map[string]bool{},
		lat:      newLatencyTracker(),
	}
	if err := h.start(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h.client(c, rand.New(rand.NewSource(*seed+int64(c))), stop)
		}(c)
	}
	// One extra bursty client to provoke load shedding.
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.burst(rand.New(rand.NewSource(*seed+1000)), stop)
	}()

	if *chaos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.chaos(rand.New(rand.NewSource(*seed+2000)), *duration, stop)
		}()
	}

	time.Sleep(*duration)
	close(stop)
	wg.Wait()

	// Settle phase: drive every accepted job to a verified result on the
	// final server incarnation. This is where "no accepted job is lost"
	// is actually proven.
	ok := h.settle(2 * time.Minute)
	h.shutdown()
	if !h.report(ok, *chaos, *quantum) {
		os.Exit(1)
	}
}

// harness owns the server lifecycle, the reference results and the
// verification ledger.
type harness struct {
	stateDir string
	quantum  time.Duration

	mu       sync.Mutex
	srv      *serve.Server
	base     string
	env      *serve.Env
	refs     map[string][]byte        // spec key -> reference bytes
	accepted map[string]serve.JobSpec // job id -> spec, every 202/200 ever seen
	verified map[string]bool          // job id -> bytes matched reference
	failures []string
	lat      *latencyTracker // submit-to-done latency per job kind

	submitted, sheds, coalesced, resumes, restarts, corrupted, badShed int64
	sseStreams, sseSteps, sseTerminals, sseReconnects                  int64
}

func (h *harness) cfg() serve.Config {
	return serve.Config{
		Addr:            "127.0.0.1:0",
		StateDir:        h.stateDir,
		StoreMaxBytes:   1 << 20, // small: force evictions under load
		Workers:         2,
		QueueDepth:      4, // small: force shedding under burst
		DefaultDeadline: 5 * time.Minute,
		MaxRetries:      2,
		PreemptQuantum:  h.quantum,
		Obs:             obs.NewRegistry(),
	}
}

func (h *harness) start() error {
	srv, err := serve.Open(h.cfg())
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.srv = srv
	h.base = "http://" + srv.Addr()
	h.mu.Unlock()
	return nil
}

func (h *harness) baseURL() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.base
}

func (h *harness) fail(format string, args ...interface{}) {
	h.mu.Lock()
	h.failures = append(h.failures, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

// corpus is the deterministic workload: a small set of distinct specs so
// references are cheap to compute and coalescing/caching actually occur.
func corpus(rng *rand.Rand) serve.JobSpec {
	switch rng.Intn(10) {
	case 0, 1, 2: // long-ish runs: the preemption targets
		return serve.JobSpec{Kind: serve.KindRun, Atoms: 48, Steps: 8 + 8*rng.Intn(3), Procs: 4, Seed: 1 + uint64(rng.Intn(2))}
	case 3, 4:
		return serve.JobSpec{Kind: serve.KindSweep, Atoms: 48, Steps: 1, Procs: 4,
			Nets: []string{"tcp", "score"}, Seed: 1 + uint64(rng.Intn(2))}
	default:
		obsv := "rdf"
		if rng.Intn(2) == 0 {
			obsv = "msd"
		}
		return serve.JobSpec{Kind: serve.KindAnalysis, Atoms: 48, Steps: 2,
			Observable: obsv, Seed: 1 + uint64(rng.Intn(4))}
	}
}

func tenantFor(c int) string { return []string{"alice", "bob", "carol"}[c%3] }

func (h *harness) reference(spec serve.JobSpec) ([]byte, error) {
	key := specKey(spec)
	h.mu.Lock()
	ref, ok := h.refs[key]
	h.mu.Unlock()
	if ok {
		return ref, nil
	}
	ref, err := h.env.ComputeReference(spec)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.refs[key] = ref
	h.mu.Unlock()
	return ref, nil
}

func specKey(spec serve.JobSpec) string {
	s := spec
	if err := s.Normalize(); err != nil {
		return "invalid"
	}
	return s.Key()
}

// client submits corpus jobs and verifies each accepted one to completion
// (or leaves it for the settle phase when the clock runs out).
func (h *harness) client(c int, rng *rand.Rand, stop <-chan struct{}) {
	tenant := tenantFor(c)
	for {
		select {
		case <-stop:
			return
		default:
		}
		spec := corpus(rng)
		id, admitted := h.submit(tenant, spec)
		if !admitted {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		h.mu.Lock()
		h.accepted[id] = spec
		h.mu.Unlock()
		// A third of the run jobs are followed over the SSE stream instead
		// of the polling loop; settle re-verifies anything left unfinished.
		if spec.Kind == serve.KindRun && rng.Intn(3) == 0 {
			h.sseVerify(id, spec, stop)
		} else {
			h.verify(id, spec, stop)
		}
		time.Sleep(time.Duration(rng.Intn(30)) * time.Millisecond)
	}
}

// burst floods one tenant with distinct slow jobs far faster than the
// workers drain them, forcing admission to shed; every accepted one still
// joins the verification ledger. Step counts cycle so the key set (and
// the reference work in settle) stays bounded.
func (h *harness) burst(rng *rand.Rand, stop <-chan struct{}) {
	n := 0
	for {
		select {
		case <-stop:
			return
		default:
		}
		n++
		spec := serve.JobSpec{Kind: serve.KindRun, Atoms: 48,
			Steps: 5 + n%32, Procs: 4, Seed: 1}
		if id, admitted := h.submit("burst", spec); admitted {
			h.mu.Lock()
			h.accepted[id] = spec
			h.mu.Unlock()
		}
		time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
	}
}

// submit POSTs one job. Returns (id, true) when the server took
// responsibility for it (202 accepted/coalesced or 200 cached); false on
// shed, drain or outage. A 429 without a positive Retry-After is a
// contract violation.
func (h *harness) submit(tenant string, spec serve.JobSpec) (string, bool) {
	atomic.AddInt64(&h.submitted, 1)
	body, _ := json.Marshal(map[string]interface{}{"tenant": tenant, "spec": spec})
	resp, err := http.Post(h.baseURL()+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", false // outage window; caller retries later
	}
	defer resp.Body.Close()
	var jr struct {
		ID        string `json:"id"`
		Status    string `json:"status"`
		Coalesced bool   `json:"coalesced"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&jr)
	switch resp.StatusCode {
	case http.StatusAccepted, http.StatusOK:
		if jr.Coalesced {
			atomic.AddInt64(&h.coalesced, 1)
		}
		h.lat.submitted(jr.ID)
		return jr.ID, true
	case http.StatusTooManyRequests:
		atomic.AddInt64(&h.sheds, 1)
		if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || sec < 1 {
			atomic.AddInt64(&h.badShed, 1)
			h.fail("429 without positive Retry-After (got %q)", resp.Header.Get("Retry-After"))
		}
		return "", false
	case http.StatusServiceUnavailable:
		return "", false // draining
	default:
		h.fail("unexpected submit status %d for %s", resp.StatusCode, specKey(spec))
		return "", false
	}
}

// verify polls id to completion and byte-compares the served result with
// the independent reference. Rides through restarts: an unknown id is
// resubmitted (idempotent), a Gone result recomputed. Gives up only on
// stop — the settle phase finishes the job.
func (h *harness) verify(id string, spec serve.JobSpec, stop <-chan struct{}) bool {
	for {
		select {
		case <-stop:
			return false
		default:
		}
		st, code := h.status(id)
		switch {
		case code == 0: // outage
			time.Sleep(50 * time.Millisecond)
			continue
		case code == http.StatusNotFound:
			// Restarted server only remembers journaled (unfinished) jobs;
			// finished ones answer from the store on resubmission.
			if _, ok := h.submit("replay", spec); !ok {
				time.Sleep(50 * time.Millisecond)
			}
			continue
		case st.Status == "done":
			if st.ResumeStep > 0 {
				atomic.AddInt64(&h.resumes, 1)
			}
			h.lat.completed(id, string(spec.Kind))
			return h.check(id, spec)
		case st.Status == "failed":
			h.fail("accepted job %s failed: %+v", id, st.Error)
			return false
		default: // queued, running, parked
			if st.ResumeStep > 0 {
				atomic.AddInt64(&h.resumes, 1)
			}
			time.Sleep(15 * time.Millisecond)
		}
	}
}

// sseVerify follows one run job on GET /v1/jobs/<id>/events and checks
// the streaming contract: event ids strictly ascend, step frames parse
// and carry id step+1, exactly one terminal frame arrives, and for a done
// job its data bytes equal the independent reference (hence the polled
// result, which check compares against the same reference). A dropped
// stream — a chaos kill, typically — reconnects with Last-Event-ID and
// must see nothing it already saw; an unknown id after a restart is
// resubmitted first (submission is idempotent).
func (h *harness) sseVerify(id string, spec serve.JobSpec, stop <-chan struct{}) bool {
	lastID := 0
	sawTerminal := false
	var terminalStatus string
	var terminalData []byte
	for !sawTerminal {
		select {
		case <-stop:
			return false
		default:
		}
		req, err := http.NewRequest("GET", h.baseURL()+"/v1/jobs/"+id+"/events", nil)
		if err != nil {
			return false
		}
		if lastID > 0 {
			req.Header.Set("Last-Event-ID", strconv.Itoa(lastID))
			atomic.AddInt64(&h.sseReconnects, 1)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil { // outage window
			time.Sleep(50 * time.Millisecond)
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusNotFound:
			resp.Body.Close()
			if _, ok := h.submit("sse", spec); !ok {
				time.Sleep(50 * time.Millisecond)
			}
			continue
		default:
			resp.Body.Close()
			h.fail("events for %s: status %d", id, resp.StatusCode)
			return false
		}
		atomic.AddInt64(&h.sseStreams, 1)
		ok := h.consumeSSE(resp.Body, id, &lastID, &sawTerminal, &terminalStatus, &terminalData)
		resp.Body.Close()
		if !ok {
			return false
		}
	}
	if terminalStatus != "done" {
		h.fail("sse %s: terminal status %q", id, terminalStatus)
		return false
	}
	atomic.AddInt64(&h.sseTerminals, 1)
	want, err := h.reference(spec)
	if err != nil {
		h.fail("reference computation for %s: %v", specKey(spec), err)
		return false
	}
	if !bytes.Equal(terminalData, want) {
		h.fail("sse %s: terminal bytes differ from direct computation of %s", id, specKey(spec))
		return false
	}
	h.lat.completed(id, string(spec.Kind))
	return h.check(id, spec)
}

// consumeSSE parses one text/event-stream connection until it ends —
// the server closes it after the terminal frame, or it drops on a crash
// (the caller then reconnects). Returns false on a contract violation.
func (h *harness) consumeSSE(r io.Reader, id string, lastID *int, sawTerminal *bool, status *string, data *[]byte) bool {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var evID, evType string
	var evData []string
	flush := func() bool {
		defer func() { evID, evType, evData = "", "", nil }()
		if evID == "" && evType == "" && len(evData) == 0 {
			return true
		}
		if evID != "" {
			n, err := strconv.Atoi(evID)
			if err != nil || n <= *lastID {
				h.fail("sse %s: id %q not ascending past %d", id, evID, *lastID)
				return false
			}
			*lastID = n
		}
		payload := []byte(strings.Join(evData, "\n"))
		switch evType {
		case "progress": // lifecycle frames carry no id and are not replayed
		case "step":
			var s struct {
				Step int `json:"step"`
			}
			if err := json.Unmarshal(payload, &s); err != nil {
				h.fail("sse %s: unparseable step frame: %v", id, err)
				return false
			}
			if evID == "" || s.Step+1 != *lastID {
				h.fail("sse %s: step %d under event id %d", id, s.Step, *lastID)
				return false
			}
			atomic.AddInt64(&h.sseSteps, 1)
		default: // terminal: the event type is the job's final status
			if *sawTerminal {
				h.fail("sse %s: second terminal frame %q", id, evType)
				return false
			}
			*sawTerminal = true
			*status = evType
			*data = append([]byte(nil), payload...)
		}
		return true
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if !flush() {
				return false
			}
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case strings.HasPrefix(line, "id: "):
			evID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			evType = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			evData = append(evData, strings.TrimPrefix(line, "data: "))
		}
	}
	return flush()
}

type statusResp struct {
	Status     string          `json:"status"`
	ResumeStep int             `json:"resume_step"`
	Error      *serve.JobError `json:"error"`
}

func (h *harness) status(id string) (statusResp, int) {
	resp, err := http.Get(h.baseURL() + "/v1/jobs/" + id)
	if err != nil {
		return statusResp{}, 0
	}
	defer resp.Body.Close()
	var st statusResp
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return st, resp.StatusCode
}

// check fetches id's result and compares against the reference.
func (h *harness) check(id string, spec serve.JobSpec) bool {
	resp, err := http.Get(h.baseURL() + "/v1/jobs/" + id + "/result")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone: // evicted: resubmit recomputes; settle retries
		return false
	default:
		return false
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return false
	}
	want, err := h.reference(spec)
	if err != nil {
		h.fail("reference computation for %s: %v", specKey(spec), err)
		return false
	}
	if !bytes.Equal(got, want) {
		h.fail("job %s served bytes differing from direct computation of %s", id, specKey(spec))
		return false
	}
	h.mu.Lock()
	h.verified[id] = true
	h.mu.Unlock()
	return true
}

// chaos periodically crashes the server, corrupts random store files
// while it is down, and reopens the same state directory.
func (h *harness) chaos(rng *rand.Rand, duration time.Duration, stop <-chan struct{}) {
	interval := duration / 4
	if interval < 2*time.Second {
		interval = 2 * time.Second
	}
	for {
		select {
		case <-stop:
			return
		case <-time.After(interval):
		}
		h.mu.Lock()
		srv := h.srv
		h.mu.Unlock()
		srv.Abort()
		h.corruptStore(rng)
		atomic.AddInt64(&h.restarts, 1)
		if err := h.start(); err != nil {
			h.fail("reopen after crash: %v", err)
			return
		}
	}
}

// corruptStore flips a byte in up to three store files — the CRC layer
// must turn every one into a miss, never a wrong result.
func (h *harness) corruptStore(rng *rand.Rand) {
	dir := filepath.Join(h.stateDir, "store")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || n >= 3 || rng.Intn(2) == 0 {
			continue
		}
		path := filepath.Join(dir, e.Name())
		buf, err := os.ReadFile(path)
		if err != nil || len(buf) == 0 {
			continue
		}
		buf[rng.Intn(len(buf))] ^= 1 << uint(rng.Intn(8))
		if os.WriteFile(path, buf, 0o644) == nil {
			n++
			atomic.AddInt64(&h.corrupted, 1)
		}
	}
}

// settle drives every accepted job to a verified result on the final
// server incarnation: the "no accepted job lost" proof.
func (h *harness) settle(budget time.Duration) bool {
	deadline := time.Now().Add(budget)
	never := make(chan struct{}) // settle ignores stop; it has its own budget
	for time.Now().Before(deadline) {
		h.mu.Lock()
		var todo []string
		for id := range h.accepted {
			if !h.verified[id] {
				todo = append(todo, id)
			}
		}
		h.mu.Unlock()
		if len(todo) == 0 {
			break
		}
		for _, id := range todo {
			h.mu.Lock()
			spec := h.accepted[id]
			h.mu.Unlock()
			if !h.verify(id, spec, never) {
				// Evicted or mid-restart: resubmit and loop.
				h.submit("settle", spec)
				time.Sleep(20 * time.Millisecond)
			}
			if time.Now().After(deadline) {
				break
			}
		}
	}
	// One guaranteed end-to-end SSE pass on a finished run: even when this
	// server incarnation answered from the store, the events stream must
	// deliver exactly one terminal whose bytes match the polled result.
	h.mu.Lock()
	var sseID string
	var sseSpec serve.JobSpec
	for id, spec := range h.accepted {
		if spec.Kind == serve.KindRun && h.verified[id] {
			sseID, sseSpec = id, spec
			break
		}
	}
	h.mu.Unlock()
	if sseID != "" {
		h.sseVerify(sseID, sseSpec, never)
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	unverified := 0
	for id := range h.accepted {
		if !h.verified[id] {
			unverified++
		}
	}
	if unverified > 0 {
		h.failures = append(h.failures,
			fmt.Sprintf("%d accepted jobs never reached a verified result", unverified))
	}
	return len(h.failures) == 0
}

func (h *harness) shutdown() {
	h.mu.Lock()
	srv := h.srv
	h.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		h.fail("final close: %v", err)
	}
}

func (h *harness) report(ok bool, chaos bool, quantum time.Duration) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	fmt.Printf("loadgen: submitted=%d accepted=%d verified=%d sheds=%d coalesced=%d resumes=%d restarts=%d corrupted=%d\n",
		h.submitted, len(h.accepted), len(h.verified), h.sheds, h.coalesced,
		h.resumes, h.restarts, h.corrupted)
	fmt.Printf("loadgen: sse streams=%d steps=%d terminals=%d reconnects=%d\n",
		h.sseStreams, h.sseSteps, h.sseTerminals, h.sseReconnects)
	for _, line := range h.lat.summary() {
		fmt.Println("loadgen:", line)
	}
	// Contract checks that require the load to have actually exercised the
	// machinery, not just survived it.
	if len(h.accepted) == 0 {
		ok = false
		h.failures = append(h.failures, "no job was ever accepted")
	}
	if h.sheds == 0 {
		ok = false
		h.failures = append(h.failures, "burst tenant never shed: admission control unexercised")
	}
	if h.sseTerminals == 0 {
		ok = false
		h.failures = append(h.failures, "SSE leg never reached a terminal event")
	}
	if quantum > 0 && h.resumes == 0 {
		ok = false
		h.failures = append(h.failures, "no checkpoint resume observed despite a preemption quantum")
	}
	if chaos && h.restarts == 0 {
		ok = false
		h.failures = append(h.failures, "chaos mode never crashed the server")
	}
	for _, f := range h.failures {
		fmt.Println("loadgen: FAIL:", f)
	}
	if ok && len(h.failures) == 0 {
		fmt.Println("loadgen: PASS")
		return true
	}
	fmt.Println("loadgen: FAIL")
	return false
}
