package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/md"
	"repro/internal/perf"
	"repro/internal/pmd"
)

// sseEvent is one parsed text/event-stream frame.
type sseEvent struct {
	id   int
	typ  string
	data string
}

// parseSSEStream decodes frames from r until EOF, emitting each as soon
// as its blank-line delimiter arrives. Heartbeat comments are dropped;
// multi-line data is rejoined with newlines per the SSE spec.
func parseSSEStream(r io.Reader, emit func(sseEvent)) {
	var cur sseEvent
	var dataLines []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.typ != "" || len(dataLines) > 0 {
				cur.data = strings.Join(dataLines, "\n")
				emit(cur)
			}
			cur, dataLines = sseEvent{}, nil
		case strings.HasPrefix(line, ":"):
			// keepalive comment
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			cur.typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			dataLines = append(dataLines, strings.TrimPrefix(line, "data: "))
		}
	}
}

// parseSSE collects every frame from r until EOF.
func parseSSE(r io.Reader) []sseEvent {
	var out []sseEvent
	parseSSEStream(r, func(e sseEvent) { out = append(out, e) })
	return out
}

// streamEvents opens the job's SSE stream (resuming after lastID when
// > 0) and reads it to EOF — the server ends the stream after the
// terminal event.
func streamEvents(t *testing.T, base, id string, lastID int) []sseEvent {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(lastID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET events: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	return parseSSE(resp.Body)
}

// checkStepInvariants asserts the stream contract over evs: step events
// strictly monotone in step with id = step+1, all ids ascending, and
// exactly one terminal event, which comes last. Returns the terminal.
func checkStepInvariants(t *testing.T, evs []sseEvent) sseEvent {
	t.Helper()
	if len(evs) == 0 {
		t.Fatal("empty event stream")
	}
	lastStep, lastID, terminals := -1, 0, 0
	var term sseEvent
	for i, e := range evs {
		if e.id > 0 {
			if e.id <= lastID {
				t.Fatalf("event ids not ascending: %d after %d", e.id, lastID)
			}
			lastID = e.id
		}
		switch e.typ {
		case EventStep:
			var sd stepEventData
			if err := json.Unmarshal([]byte(e.data), &sd); err != nil {
				t.Fatalf("step event data: %v (%q)", err, e.data)
			}
			if sd.Step <= lastStep {
				t.Fatalf("steps not monotone: %d after %d", sd.Step, lastStep)
			}
			if e.id != sd.Step+1 {
				t.Fatalf("step %d carries id %d, want %d", sd.Step, e.id, sd.Step+1)
			}
			if sd.ClassicS <= 0 {
				t.Fatalf("step %d: empty phase split", sd.Step)
			}
			lastStep = sd.Step
		case EventProgress:
		case StatusDone, StatusFailed, StatusCanceled:
			terminals++
			term = e
			if i != len(evs)-1 {
				t.Fatalf("terminal event %q not last (%d/%d)", e.typ, i, len(evs))
			}
		default:
			t.Fatalf("unknown event type %q", e.typ)
		}
	}
	if terminals != 1 {
		t.Fatalf("got %d terminal events, want exactly 1", terminals)
	}
	return term
}

// TestServeEventsStreamAndProfile: the live SSE stream delivers every
// step exactly once and a terminal event byte-identical to the polling
// result; late subscribers replay the same story from the job record; and
// the profile endpoint serves a valid attribution profile whose buckets
// sum to its wall.
func TestServeEventsStreamAndProfile(t *testing.T) {
	_, base := testServer(t, nil)
	spec := runSpec(3)

	code, jr, _ := postJob(t, base, "alice", spec, 0)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	// Live subscription opened while the job is queued or running.
	evs := streamEvents(t, base, jr.ID, 0)
	term := checkStepInvariants(t, evs)
	if term.typ != StatusDone {
		t.Fatalf("terminal event %q, want done", term.typ)
	}
	steps := 0
	for _, e := range evs {
		if e.typ == EventStep {
			steps++
		}
	}
	if steps != spec.Steps {
		t.Fatalf("stream delivered %d step events, want %d", steps, spec.Steps)
	}

	polled := getResult(t, base, jr.ID)
	if !bytes.Equal([]byte(term.data), polled) {
		t.Fatalf("terminal data differs from polled result:\n sse  %s\n poll %s", term.data, polled)
	}

	// A subscriber arriving after completion replays the identical
	// id-carrying events from the buffer.
	replay := streamEvents(t, base, jr.ID, 0)
	rterm := checkStepInvariants(t, replay)
	if rterm.data != term.data || rterm.id != term.id {
		t.Fatal("late replay's terminal differs from the live stream's")
	}
	// Resuming from the terminal id yields nothing: the client saw it all.
	if rest := streamEvents(t, base, jr.ID, term.id); len(rest) != 0 {
		t.Fatalf("resume past terminal replayed %d events", len(rest))
	}
	// Resuming mid-stream replays only what follows.
	tail := streamEvents(t, base, jr.ID, 2)
	for _, e := range tail {
		if e.id <= 2 {
			t.Fatalf("resume after id 2 replayed id %d", e.id)
		}
	}

	// The stored attribution profile: parses under the versioned schema,
	// ranks match the spec, buckets sum to the wall.
	resp, err := http.Get(base + "/v1/jobs/" + jr.ID + "/profile")
	if err != nil {
		t.Fatalf("GET profile: %v", err)
	}
	buf, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET profile: %d %s", resp.StatusCode, buf)
	}
	prof, err := perf.Parse(buf)
	if err != nil {
		t.Fatalf("parse profile: %v", err)
	}
	if prof.Ranks != spec.Procs || prof.Steps != spec.Steps {
		t.Fatalf("profile shape: ranks=%d steps=%d", prof.Ranks, prof.Steps)
	}
	if sum, wall := prof.Attribution.Sum(), prof.WallSeconds; wall <= 0 || sum < 0.99*wall || sum > 1.01*wall {
		t.Fatalf("profile identity: buckets %g, wall %g", sum, wall)
	}
	if len(prof.Collectives) == 0 {
		t.Fatal("served profile recorded no collectives")
	}
}

// TestServeEventsResumeAcrossCrash: a client that loses its stream to a
// server crash reconnects to the reopened server with Last-Event-ID and
// sees the story continue — ids ascending across the two lives, steps
// monotone, exactly one terminal event, and terminal bytes identical to
// an uninterrupted computation.
func TestServeEventsResumeAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.Workers = 1
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	base := "http://" + s.Addr()

	// Big enough that 96 steps take seconds: the crash must land mid-run,
	// after the stream has delivered a few steps but well before terminal.
	spec := JobSpec{Kind: KindRun, Atoms: 720, Steps: 96, Procs: 4}
	code, jr, _ := postJob(t, base, "alice", spec, 0)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}

	// Stream live; the reader drains until Abort cuts the connection.
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+jr.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	var mu sync.Mutex
	var before []sseEvent
	done := make(chan struct{})
	go func() {
		defer close(done)
		parseSSEStream(resp.Body, func(e sseEvent) {
			mu.Lock()
			before = append(before, e)
			mu.Unlock()
		})
	}()
	stepsSeen := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, e := range before {
			if e.typ == EventStep {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(60 * time.Second)
	for stepsSeen() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("no step events before crash")
		}
		time.Sleep(5 * time.Millisecond)
	}

	s.Abort()
	<-done
	resp.Body.Close()

	mu.Lock()
	lastID := 0
	lastStep := -1
	for _, e := range before {
		if e.id > lastID {
			lastID = e.id
		}
		if e.typ == EventStep {
			var sd stepEventData
			if err := json.Unmarshal([]byte(e.data), &sd); err != nil {
				t.Fatalf("pre-crash step data: %v", err)
			}
			if sd.Step <= lastStep {
				t.Fatalf("pre-crash steps not monotone: %d after %d", sd.Step, lastStep)
			}
			lastStep = sd.Step
		}
		if e.typ == StatusDone || e.typ == StatusFailed {
			t.Fatalf("terminal event %q before the crash", e.typ)
		}
	}
	mu.Unlock()

	s2, err := Open(testConfig(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close(context.Background())
	base2 := "http://" + s2.Addr()

	after := streamEvents(t, base2, jr.ID, lastID)
	term := checkStepInvariants(t, after)
	if term.typ != StatusDone {
		t.Fatalf("post-crash terminal %q", term.typ)
	}
	for _, e := range after {
		if e.id > 0 && e.id <= lastID {
			t.Fatalf("resumed stream replayed id %d ≤ Last-Event-ID %d", e.id, lastID)
		}
	}

	want, err := NewEnv().ComputeReference(spec)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if term.data != string(want) {
		t.Fatalf("terminal bytes differ from uninterrupted computation:\n sse %s\n ref %s", term.data, want)
	}
	if !bytes.Equal(getResult(t, base2, jr.ID), want) {
		t.Fatal("polled result differs from reference after crash")
	}
}

// TestServeEventsHeartbeatAndProfileRouting: heartbeats flow while a job
// is stalled on a worker; profile requests for non-run jobs are 400 and
// for unfinished jobs 409.
func TestServeEventsHeartbeatAndProfileRouting(t *testing.T) {
	fault, release := blockingFault(KindRun)
	_, base := testServer(t, func(c *Config) {
		c.Workers = 2
		c.EventHeartbeat = 20 * time.Millisecond
		c.FaultInject = fault
	})

	code, jrRun, _ := postJob(t, base, "alice", runSpec(2), 0)
	if code != http.StatusAccepted {
		t.Fatalf("run submit = %d", code)
	}

	// While the run is held by the fault gate, the stream carries only
	// comments — read raw bytes long enough to catch a few.
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+jrRun.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	readCh := make(chan string, 1)
	go func() {
		buf := make([]byte, 512)
		var acc []byte
		for !strings.Contains(string(acc), ": hb") {
			n, err := resp.Body.Read(buf)
			acc = append(acc, buf[:n]...)
			if err != nil {
				break
			}
		}
		readCh <- string(acc)
	}()
	var got string
	select {
	case got = <-readCh:
	case <-time.After(5 * time.Second):
		t.Fatal("no heartbeat within 5s")
	}
	if !strings.Contains(got, ": hb") {
		t.Fatalf("expected heartbeat comments, got %q", got)
	}

	// Unfinished run: profile is a 409 conflict with the live status.
	pr, err := http.Get(base + "/v1/jobs/" + jrRun.ID + "/profile")
	if err != nil {
		t.Fatalf("GET profile: %v", err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusConflict {
		t.Fatalf("unfinished profile = %d, want 409", pr.StatusCode)
	}

	close(release)
	resp.Body.Close()
	waitStatus(t, base, jrRun.ID, StatusDone, 60*time.Second)

	// Non-run kinds have no profile: 400, not 404/409.
	code, jrA, _ := postJob(t, base, "bob", analysisSpec(), 0)
	if code != http.StatusAccepted {
		t.Fatalf("analysis submit = %d", code)
	}
	waitStatus(t, base, jrA.ID, StatusDone, 60*time.Second)
	pr, err = http.Get(base + "/v1/jobs/" + jrA.ID + "/profile")
	if err != nil {
		t.Fatalf("GET analysis profile: %v", err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusBadRequest {
		t.Fatalf("analysis profile = %d, want 400", pr.StatusCode)
	}

	// Malformed Last-Event-ID is rejected before streaming starts.
	req2, _ := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+jrA.ID+"/events", nil)
	req2.Header.Set("Last-Event-ID", "bogus")
	r2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatalf("GET bad Last-Event-ID: %v", err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad Last-Event-ID = %d, want 400", r2.StatusCode)
	}
}

// TestTerminateOnceAndStreamBeforeDone pins the one terminal transition:
// when done closes the record already holds the terminal event, and of
// several racing terminations (a DELETE of a queued job against the worker
// that just dequeued it) exactly one acts.
func TestTerminateOnceAndStreamBeforeDone(t *testing.T) {
	spec := JobSpec{Kind: KindRun, Steps: 4}
	j := newJobState("id", "tenant", "key", spec, time.Now().Add(time.Minute))
	seen := make(chan []event, 1)
	go func() {
		<-j.done
		replay, _, cancel := j.subscribe(0)
		cancel()
		seen <- replay
	}()
	var wg sync.WaitGroup
	wins := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		status := []string{StatusCanceled, StatusFailed}[i%2]
		go func() {
			defer wg.Done()
			if j.terminate(status, Errf(KindCanceled, "race"), []byte(status)) {
				wins <- status
			}
		}()
	}
	wg.Wait()
	close(wins)
	var won []string
	for s := range wins {
		won = append(won, s)
	}
	if len(won) != 1 {
		t.Fatalf("%d terminations acted (%v), want exactly one", len(won), won)
	}
	replay := <-seen
	if len(replay) != 1 || replay[0].typ != won[0] || replay[0].id != spec.Steps+1 || string(replay[0].data) != won[0] {
		t.Fatalf("a waiter released by done found %+v in the record, want the one %s terminal event", replay, won[0])
	}
	if st, _, _, jerr := j.snapshot(); st != won[0] || jerr == nil {
		t.Fatalf("snapshot after the race: status %q, error %v", st, jerr)
	}

	// The same transition with every writer and reader in flight: streams
	// attach while update and step publish and two terminations race. Each
	// stream carries exactly one terminal frame, as its last, and by the
	// time a reader holds that frame the poll and the long-poll wake-up
	// already agree with it.
	t.Run("concurrent", func(t *testing.T) {
		spec := JobSpec{Kind: KindRun, Steps: 64}
		j := newJobState("id", "tenant", "key", spec, time.Now().Add(time.Minute))
		start := make(chan struct{})
		var writers, readers sync.WaitGroup
		writers.Add(2)
		go func() {
			defer writers.Done()
			<-start
			for i := 0; i < spec.Steps; i++ {
				j.update(func() { j.status = StatusRunning; j.attempts++ })
			}
		}()
		go func() {
			defer writers.Done()
			<-start
			for i := 0; i < spec.Steps; i++ {
				j.step(i, pmd.StepTiming{}, md.EnergyReport{})
			}
		}()
		var acted atomic.Int32
		for _, status := range []string{StatusDone, StatusCanceled} {
			writers.Add(1)
			go func(status string) {
				defer writers.Done()
				<-start
				time.Sleep(200 * time.Microsecond) // let some frames out first
				if j.terminate(status, nil, []byte(status)) {
					acted.Add(1)
				}
			}(status)
		}
		for i := 0; i < 16; i++ {
			readers.Add(1)
			go func(i int) {
				defer readers.Done()
				<-start
				time.Sleep(time.Duration(i*25) * time.Microsecond) // attach at staggered points
				stream, ch, cancel := j.subscribe(0)
				defer cancel()
				if ch != nil { // nil when already terminal: the replay is the stream
					for e := range ch {
						stream = append(stream, e)
					}
				}
				terminals, lastID := 0, 0
				for k, e := range stream {
					if e.id > 0 {
						if e.id <= lastID {
							t.Errorf("reader %d: id %d after %d", i, e.id, lastID)
						}
						lastID = e.id
					}
					if !terminalStatus(e.typ) {
						continue
					}
					terminals++
					if k != len(stream)-1 || e.id != spec.Steps+1 || string(e.data) != e.typ {
						t.Errorf("reader %d: terminal frame %+v at %d of %d", i, e, k+1, len(stream))
					}
					if st, _, _, _ := j.snapshot(); st != e.typ || !j.terminal() {
						t.Errorf("reader %d holds the %s frame; poll says %q, done closed %v", i, e.typ, st, j.terminal())
					}
				}
				if terminals != 1 {
					t.Errorf("reader %d: %d terminal frames in %d, want exactly one", i, terminals, len(stream))
				}
			}(i)
		}
		close(start)
		writers.Wait()
		readers.Wait()
		if acted.Load() != 1 {
			t.Fatalf("%d terminations acted, want exactly one", acted.Load())
		}
		if j.update(func() { j.status = StatusRunning }) {
			t.Fatal("update changed a terminal record")
		}
	})
}
