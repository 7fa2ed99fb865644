package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pmd"
)

// maxJobWait caps the ?wait= long-poll on job status: a poller asking
// for more still gets an answer within this bound and simply polls
// again, so a stuck client can never pin a connection indefinitely.
const maxJobWait = 30 * time.Second

// Job lifecycle states surfaced by the status endpoint.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
	// StatusParked marks a job checkpointed to disk by a graceful
	// shutdown; reopening the same StateDir resumes it.
	StatusParked = "parked"
)

// jobState is the one lifecycle record of an accepted job. Everything a
// reader can observe — status, attempts, resume step, error, the buffered
// id-carrying events and the live subscribers — sits under mu and changes
// only in update, step and terminate, each of which broadcasts what it
// changed before it unlocks. The plain GET, the ?wait= long-poll and the
// SSE stream are three readers of this record; they cannot disagree
// because there is no second copy to fall behind.
type jobState struct {
	id       string
	tenant   string
	key      string
	spec     JobSpec
	vtag     float64 // fair-queue virtual finish tag
	deadline time.Time
	created  time.Time

	mu         sync.Mutex
	status     string
	attempts   int
	resumeStep int // newest step a resumed attempt started from
	jerr       *JobError
	events     []event            // id-carrying only (steps, terminal), ascending ids; bounded by the spec's step cap
	lastStep   int                // newest step broadcast, -1 before the first
	subs       map[chan event]int // value: the subscriber's Last-Event-ID

	cancelOnce sync.Once
	cancelCh   chan struct{}
	done       chan struct{} // closed by terminate: the wake-up ?wait selects on
}

func newJobState(id, tenant, key string, spec JobSpec, deadline time.Time) *jobState {
	return &jobState{
		id: id, tenant: tenant, key: key, spec: spec,
		deadline: deadline, created: time.Now(),
		status:   StatusQueued,
		lastStep: -1,
		subs:     map[chan event]int{},
		cancelCh: make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// terminalStatus reports whether st is one a job never leaves.
func terminalStatus(st string) bool {
	return st == StatusDone || st == StatusFailed || st == StatusCanceled
}

// terminalEventID is the id of a job's terminal SSE event: one past the
// largest possible step id (step N carries id N+1), and a pure function
// of the spec — a server reopened after a crash re-derives the same id,
// which is what lets Last-Event-ID resume across process lives.
func (j *jobState) terminalEventID() int { return j.spec.Steps + 1 }

// terminate is the one terminal transition of a job: status and error
// change, the single terminal event is buffered and broadcast, every
// stream is ended after it, and done is closed — all before the lock is
// released, so whoever wakes on done, polls, or subscribes finds the same
// finished record. The event type is the terminal status; for a done run
// the data is the exact result payload the polling endpoint serves. Only
// the first call acts and reports true — a worker that finds its job
// cancelled before start can race the DELETE that cancelled it.
func (j *jobState) terminate(status string, jerr *JobError, payload []byte) (first bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalStatus(j.status) {
		return false
	}
	j.terminateLocked(status, jerr, payload)
	return true
}

// cancelIdle is DELETE's transition, one critical section: a job no worker
// holds — queued, or parked by a shutdown — terminates as canceled and
// true is returned. A running or finished job is left as it is: the
// worker that started it owns it and finds cancelCh closed at its next
// step boundary, and a worker that dequeues a job after this finds it
// terminal and skips it. No worker can start the job between the status
// check and the termination, because starting it is an update under the
// same lock.
func (j *jobState) cancelIdle() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued && j.status != StatusParked {
		return false
	}
	jerr := Errf(KindCanceled, "cancelled while queued")
	payload, _ := json.Marshal(jobResponse{ID: j.id, Status: StatusCanceled, Kind: j.spec.Kind, Error: jerr})
	j.terminateLocked(StatusCanceled, jerr, payload)
	return true
}

// terminateLocked makes the terminal change terminate and cancelIdle
// share. Caller holds j.mu and has checked the record is not terminal.
func (j *jobState) terminateLocked(status string, jerr *JobError, payload []byte) {
	j.status, j.jerr = status, jerr
	e := event{id: j.terminalEventID(), typ: status, data: payload}
	j.events = append(j.events, e)
	j.broadcast(e)
	for ch := range j.subs {
		close(ch)
		delete(j.subs, ch)
	}
	close(j.done)
}

// update is the one non-terminal transition: mutate changes the record
// (status, attempts, resume step) and the progress event describing the
// result goes out in the same critical section. Progress events carry no
// id and are not buffered or replayed. A terminal record no longer
// changes: update then does nothing and reports false.
func (j *jobState) update(mutate func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalStatus(j.status) {
		return false
	}
	mutate()
	if len(j.subs) > 0 { // unbuffered: with nobody listening there is no frame to build
		data, err := json.Marshal(progressEventData{
			Status: j.status, Attempts: j.attempts, ResumeStep: j.resumeStep,
		})
		if err == nil {
			j.broadcast(event{typ: EventProgress, data: data})
		}
	}
	return true
}

func (j *jobState) snapshot() (status string, attempts, resumeStep int, jerr *JobError) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.attempts, j.resumeStep, j.jerr
}

func (j *jobState) cancel() {
	j.cancelOnce.Do(func() { close(j.cancelCh) })
}

func (j *jobState) cancelled() bool {
	select {
	case <-j.cancelCh:
		return true
	default:
		return false
	}
}

func (j *jobState) terminal() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// Server is the simulation job service. Open starts it; Close shuts it
// down gracefully (draining short jobs, checkpoint-parking long ones);
// Abort simulates a crash for chaos testing.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	env   *Env
	store *Store
	jnl   *journal
	queue *fairQueue

	ln   net.Listener
	hsrv *http.Server

	mu      sync.Mutex
	jobs    map[string]*jobState
	closing bool
	aborted bool

	quitOnce sync.Once
	quit     chan struct{}
	wg       sync.WaitGroup

	busy    *obs.Gauge
	jobSecs *obs.Histogram
}

// Open starts a server: it opens the state directory, replays the
// accepted-job journal (jobs whose results already reached the store
// complete instantly; the rest re-enter the queue), binds cfg.Addr and
// starts the workers. The server owns StateDir exclusively until Close
// or Abort returns.
func Open(cfg Config) (*Server, error) {
	c := cfg.withDefaults()
	if c.StateDir == "" {
		return nil, fmt.Errorf("serve: Config.StateDir is required")
	}
	store, err := OpenStore(filepath.Join(c.StateDir, "store"), c.StoreMaxBytes, c.Obs)
	if err != nil {
		return nil, err
	}
	jnl, err := openJournal(filepath.Join(c.StateDir, "jobs"))
	if err != nil {
		return nil, err
	}
	env := NewEnv()
	env.KernelWorkers = c.KernelWorkers
	s := &Server{
		cfg:   c,
		reg:   c.Obs,
		env:   env,
		store: store,
		jnl:   jnl,
		queue: newFairQueue(c.QueueDepth, c.TenantWeights),
		jobs:  map[string]*jobState{},
		quit:  make(chan struct{}),
		busy:  c.Obs.Gauge("repro_serve_workers_busy", "workers currently executing a job"),
		jobSecs: c.Obs.Histogram("repro_serve_job_seconds",
			"accepted-to-terminal job latency", obs.ExpBuckets(0.001, 2, 16)),
	}
	if err := s.replay(); err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", c.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", c.Addr, err)
	}
	s.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleSubmit)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statz", s.handleStatz)
	s.hsrv = &http.Server{Handler: mux}
	go func() { _ = s.hsrv.Serve(ln) }()

	for i := 0; i < c.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// replay re-admits every journaled job from a previous life. A job whose
// result already reached the store (crash between Put and journal delete)
// completes instantly; the rest are force-enqueued — they were accepted
// once, shedding them now would lose them.
func (s *Server) replay() error {
	entries, skipped, err := s.jnl.replay()
	if err != nil {
		return err
	}
	if skipped > 0 {
		s.reg.Counter("repro_serve_journal_skipped_total",
			"damaged journal files skipped on replay").Add(float64(skipped))
	}
	replayed := 0
	for _, e := range entries {
		spec := e.Spec
		if err := spec.Normalize(); err != nil || spec.Key() != e.Key || JobID(e.Key) != e.ID {
			// A journal whose spec no longer reproduces its own key is from
			// an incompatible format; dropping it is the only safe move.
			s.jnl.remove(e.ID)
			continue
		}
		budget := time.Duration(e.Deadline) * time.Millisecond
		if budget <= 0 {
			budget = s.cfg.DefaultDeadline
		}
		j := newJobState(e.ID, e.Tenant, e.Key, spec, time.Now().Add(budget))
		if payload, ok := s.store.Get(e.Key); ok {
			j.terminate(StatusDone, nil, payload)
			s.jnl.remove(e.ID)
			s.cleanupCkpt(j)
		} else {
			_ = s.queue.enqueue(e.Tenant, j, true)
			replayed++
		}
		s.jobs[j.id] = j
	}
	if replayed > 0 {
		s.reg.Counter("repro_serve_replayed_total",
			"journaled jobs re-enqueued on reopen").Add(float64(replayed))
	}
	return nil
}

func (s *Server) ckptDir(id string) string {
	return filepath.Join(s.cfg.StateDir, "ckpt", id)
}

func (s *Server) cleanupCkpt(j *jobState) {
	if j.spec.Kind == KindRun {
		_ = os.RemoveAll(s.ckptDir(j.id))
	}
}

func (s *Server) stopRequested() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing || s.aborted
}

func (s *Server) isAborted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aborted
}

// ---------------------------------------------------------------------------
// Worker side

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.next()
		s.refreshDepthGauges()
		if !ok {
			return
		}
		s.execute(j)
	}
}

// finish moves j to a terminal state: journal entry and checkpoints are
// released, waiters are woken, metrics recorded, and the single terminal
// SSE event goes out. For StatusDone the result was already Put to the
// store by the caller — that ordering is the durability contract —
// and payload carries those exact bytes so the stream's terminal event is
// byte-identical to what the polling result endpoint serves.
func (s *Server) finish(j *jobState, status string, jerr *JobError, payload []byte) {
	s.jnl.remove(j.id)
	s.cleanupCkpt(j)
	if status == StatusDone && payload == nil {
		payload, _ = s.store.Get(j.key)
	}
	if status != StatusDone {
		payload, _ = json.Marshal(jobResponse{ID: j.id, Status: status, Kind: j.spec.Kind, Error: jerr})
	}
	if j.terminate(status, jerr, payload) {
		s.countTerminal(j, status)
	}
}

// countTerminal records a job's terminal transition in the metrics.
func (s *Server) countTerminal(j *jobState, status string) {
	s.reg.Counter("repro_serve_jobs_total", "terminal jobs by kind and outcome",
		obs.L("kind", string(j.spec.Kind)), obs.L("outcome", status)).Add(1)
	s.jobSecs.Observe(time.Since(j.created).Seconds())
}

// execute runs one dequeued job to a terminal state, a parked state, or a
// quantum-preempted requeue. Retryable failures loop in place with
// backoff; everything a worker does is panic-isolated in attempt().
func (s *Server) execute(j *jobState) {
	for {
		if j.terminal() {
			return // cancelled while queued
		}
		if j.cancelled() {
			s.finish(j, StatusCanceled, Errf(KindCanceled, "cancelled before start"), nil)
			return
		}
		if s.stopRequested() {
			s.park(j)
			return
		}
		if time.Now().After(j.deadline) {
			s.finish(j, StatusFailed, Errf(KindDeadline, "deadline expired after %s in queue", time.Since(j.created).Round(time.Millisecond)), nil)
			return
		}

		var attempt int
		if !j.update(func() {
			j.status = StatusRunning
			j.attempts++
			attempt = j.attempts
		}) {
			return // cancelled between the check above and here
		}
		s.busy.Add(1)
		start := time.Now()
		payload, profile, resumed, err := s.attempt(j, attempt, start)
		s.busy.Add(-1)
		if resumed != nil && resumed.Step > 0 {
			j.update(func() { j.resumeStep = max(j.resumeStep, resumed.Step) })
			s.reg.Counter("repro_serve_resumed_total",
				"attempts resumed from a parked checkpoint").Add(1)
		}

		if s.isAborted() {
			// Simulated crash: discard everything not already on disk. The
			// journal entry survives, so reopening replays this job.
			return
		}

		if err == nil {
			if profile != nil {
				// Telemetry, best-effort: an eviction-pressure failure here
				// must not fail a correctly computed job.
				_ = s.store.Put(profileKey(j.key), profile)
			}
			if perr := s.store.Put(j.key, payload); perr != nil {
				err = perr // classified transient; falls through to retry
			} else {
				s.finish(j, StatusDone, nil, payload)
				return
			}
		}

		if err != nil && errIsPreempted(err) {
			switch {
			case j.cancelled():
				s.finish(j, StatusCanceled, Errf(KindCanceled, "cancelled mid-run"), nil)
			case time.Now().After(j.deadline):
				s.finish(j, StatusFailed, Errf(KindDeadline, "deadline expired at step boundary"), nil)
			case s.stopRequested():
				s.park(j)
			default:
				// Quantum expired: back to the queue at the head of this
				// tenant's line. Attempts are not consumed — preemption is
				// scheduling, not failure.
				j.update(func() {
					j.status = StatusQueued
					j.attempts--
				})
				s.queue.requeueFront(j.tenant, j)
				s.refreshDepthGauges()
				s.reg.Counter("repro_serve_preempted_total",
					"runs parked at a checkpoint boundary by the quantum").Add(1)
			}
			return
		}

		if err != nil {
			var je *JobError
			if !errors.As(err, &je) {
				je = Errf(KindInternal, "%v", err)
			}
			if je.Kind.Retryable() && attempt <= s.cfg.MaxRetries {
				s.reg.Counter("repro_serve_retries_total",
					"retryable job failures re-executed").Add(1)
				s.backoff(j, attempt)
				continue // slept or interrupted: the loop re-checks cancel/close
			}
			s.finish(j, StatusFailed, je, nil)
			return
		}
	}
}

// profileKey derives the store key of a run job's attribution profile
// from its canonical result key. The suffix cannot collide with a spec
// key: those end in structured field=value pairs, never in "#profile".
func profileKey(key string) string { return key + " #profile" }

// attempt executes one try of j with full panic isolation: a crashing
// worker fails the one job with KindWorkerCrash and the server lives on.
func (s *Server) attempt(j *jobState, attempt int, start time.Time) (payload, profile []byte, resumed *pmd.ResumeInfo, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = Errf(KindWorkerCrash, "panic in attempt %d: %v", attempt, r)
		}
	}()
	if s.cfg.FaultInject != nil {
		if ferr := s.cfg.FaultInject(j.spec, attempt); ferr != nil {
			return nil, nil, nil, ferr
		}
	}
	ckptDir := ""
	var preempt func() bool
	var onStep StepFunc
	if j.spec.Kind == KindRun {
		ckptDir = s.ckptDir(j.id)
		quantum := s.cfg.PreemptQuantum
		preempt = func() bool {
			if j.cancelled() || s.stopRequested() {
				return true
			}
			if time.Now().After(j.deadline) {
				return true
			}
			return quantum > 0 && time.Since(start) > quantum
		}
		onStep = j.step
	}
	return s.env.Execute(j.spec, ckptDir, preempt, onStep)
}

// park records that j's work is safely on disk (journal entry, plus the
// preemption checkpoint for run jobs) and will resume when the StateDir
// is reopened. Parked is not terminal: waiters are not woken, because the
// job has not finished — this process just cannot finish it.
func (s *Server) park(j *jobState) {
	j.update(func() { j.status = StatusParked })
	s.reg.Counter("repro_serve_parked_total",
		"jobs checkpoint-parked by shutdown").Add(1)
}

// backoff sleeps the exponential, jittered retry delay for attempt.
// The jitter is a deterministic function of (job id, attempt) so reruns
// of the same failure schedule identically. Cancellation and shutdown
// cut the sleep short.
func (s *Server) backoff(j *jobState, attempt int) {
	d := s.cfg.RetryBaseDelay << uint(attempt-1)
	if max := 5 * time.Second; d > max {
		d = max
	}
	h := fnv.New32a()
	io.WriteString(h, j.id)
	fmt.Fprintf(h, "/%d", attempt)
	// Jitter in [0.5, 1.5): desynchronizes retry storms without a global
	// randomness source.
	d = time.Duration(float64(d) * (0.5 + float64(h.Sum32()%1000)/1000))
	select {
	case <-time.After(d):
	case <-j.cancelCh:
	case <-s.quit:
	}
}

func (s *Server) refreshDepthGauges() {
	for tenant, depth := range s.queue.depths() {
		s.reg.Gauge("repro_serve_queue_depth", "queued jobs per tenant",
			obs.L("tenant", tenant)).Set(float64(depth))
	}
}

// ---------------------------------------------------------------------------
// HTTP side

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	Tenant     string  `json:"tenant"`
	Spec       JobSpec `json:"spec"`
	DeadlineMS int64   `json:"deadline_ms"` // 0 = server default
}

// jobResponse is the JSON shape of both submit responses and status
// reads.
type jobResponse struct {
	ID            string    `json:"id"`
	Status        string    `json:"status"`
	Kind          JobKind   `json:"kind"`
	Attempts      int       `json:"attempts,omitempty"`
	ResumeStep    int       `json:"resume_step,omitempty"`
	Coalesced     bool      `json:"coalesced,omitempty"`
	Cached        bool      `json:"cached,omitempty"`
	Error         *JobError `json:"error,omitempty"`
	RetryAfterSec int       `json:"retry_after_sec,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, &JobError{KindBadRequest, "POST only"})
		return
	}
	if s.stopRequested() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, &JobError{KindOverloaded, "shutting down"})
		return
	}
	var req submitRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, Errf(KindBadRequest, "body: %v", err))
		return
	}
	if req.Tenant == "" {
		req.Tenant = "anon"
	}
	if err := req.Spec.Normalize(); err != nil {
		writeJSON(w, http.StatusBadRequest, err)
		return
	}
	key := req.Spec.Key()
	id := JobID(key)
	budget := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		budget = time.Duration(req.DeadlineMS) * time.Millisecond
	}

	// In-flight dedup first: a live lifecycle wins over the store (its
	// result may not exist yet) and over resubmission. Inserting the new
	// jobState under the same lock as the check makes the dedup airtight:
	// a concurrent identical POST coalesces onto the reservation.
	j := newJobState(id, req.Tenant, key, req.Spec, time.Now().Add(budget))
	s.mu.Lock()
	if exist, ok := s.jobs[id]; ok {
		st, _, _, _ := exist.snapshot()
		switch st {
		case StatusDone:
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, jobResponse{ID: id, Status: StatusDone, Kind: req.Spec.Kind, Cached: true})
			return
		case StatusFailed, StatusCanceled:
			// Terminal failure: fall through and start a fresh lifecycle.
		default:
			s.mu.Unlock()
			s.reg.Counter("repro_serve_coalesced_total",
				"submissions coalesced onto an in-flight identical job").Add(1)
			writeJSON(w, http.StatusAccepted, jobResponse{ID: id, Status: st, Kind: req.Spec.Kind, Coalesced: true})
			return
		}
	}
	s.jobs[id] = j
	s.mu.Unlock()

	unreserve := func() {
		s.mu.Lock()
		if s.jobs[id] == j {
			delete(s.jobs, id)
		}
		s.mu.Unlock()
	}

	// Store hit: the work is already done — no queueing, no journal.
	if payload, ok := s.store.Get(key); ok {
		j.terminate(StatusDone, nil, payload)
		writeJSON(w, http.StatusOK, jobResponse{ID: id, Status: StatusDone, Kind: req.Spec.Kind, Cached: true})
		return
	}

	// Durability before acknowledgement: journal, then queue, then 202.
	// A crash after the journal write replays the job; a shed removes it.
	if err := s.jnl.append(journalEntry{
		ID: id, Tenant: req.Tenant, Key: key, Spec: req.Spec,
		Deadline: budget.Milliseconds(), Accepted: j.created,
	}); err != nil {
		unreserve()
		writeJSON(w, http.StatusInternalServerError, err)
		return
	}
	if err := s.queue.enqueue(req.Tenant, j, false); err != nil {
		s.jnl.remove(id)
		unreserve()
		var shed *errShed
		if errors.As(err, &shed) {
			s.reg.Counter("repro_serve_shed_total", "submissions shed by admission control",
				obs.L("tenant", req.Tenant)).Add(1)
			w.Header().Set("Retry-After", fmt.Sprintf("%d", shed.retryAfterSec))
			writeJSON(w, http.StatusTooManyRequests, jobResponse{
				ID: id, Status: "shed", Kind: req.Spec.Kind,
				Error:         &JobError{KindOverloaded, "tenant queue full"},
				RetryAfterSec: shed.retryAfterSec,
			})
			return
		}
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, err)
		return
	}
	s.refreshDepthGauges()
	s.reg.Counter("repro_serve_accepted_total", "jobs accepted into the queue",
		obs.L("tenant", req.Tenant)).Add(1)
	writeJSON(w, http.StatusAccepted, jobResponse{ID: id, Status: StatusQueued, Kind: req.Spec.Kind})
}

func (s *Server) lookup(id string) *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub := rest, ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		id, sub = rest[:i], rest[i+1:]
	}
	j := s.lookup(id)
	if j == nil {
		writeJSON(w, http.StatusNotFound, Errf(KindBadRequest, "unknown job %q", id))
		return
	}
	switch {
	case r.Method == http.MethodGet && sub == "":
		// ?wait=<dur> long-polls: block until the job reaches a terminal
		// state or the (bounded) wait expires, then answer with the usual
		// snapshot. A poller gets the same response shape either way — the
		// wait only trades HTTP round-trips for one parked connection.
		if wv := r.URL.Query().Get("wait"); wv != "" {
			d, err := time.ParseDuration(wv)
			if err != nil || d < 0 {
				writeJSON(w, http.StatusBadRequest,
					Errf(KindBadRequest, "bad wait %q: want a non-negative duration like 5s", wv))
				return
			}
			if d > maxJobWait {
				d = maxJobWait
			}
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-j.done: // terminal: done, failed or canceled
			case <-t.C: // wait expired: report the in-flight status
			case <-s.quit: // shutdown (parking is not terminal): don't hold the drain
			case <-r.Context().Done(): // client gave up
			}
		}
		st, attempts, resume, jerr := j.snapshot()
		writeJSON(w, http.StatusOK, jobResponse{
			ID: j.id, Status: st, Kind: j.spec.Kind,
			Attempts: attempts, ResumeStep: resume, Error: jerr,
		})
	case r.Method == http.MethodGet && sub == "result":
		st, _, _, jerr := j.snapshot()
		if st != StatusDone {
			writeJSON(w, http.StatusConflict, jobResponse{ID: j.id, Status: st, Kind: j.spec.Kind, Error: jerr})
			return
		}
		payload, ok := s.store.Get(j.key)
		if !ok {
			// Evicted or damaged since completion: an honest miss. The
			// client resubmits the spec and the engine recomputes the
			// identical bytes — the store never serves a wrong result.
			writeJSON(w, http.StatusGone, Errf(KindTransient, "result evicted; resubmit to recompute"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(payload)
	case r.Method == http.MethodGet && sub == "events":
		s.handleEvents(w, r, j)
	case r.Method == http.MethodGet && sub == "profile":
		s.handleProfile(w, j)
	case r.Method == http.MethodDelete && sub == "":
		j.cancel()
		if j.cancelIdle() {
			// Not on a worker, and now no worker will start it: this
			// request owns the release of its journal entry and checkpoints.
			s.jnl.remove(j.id)
			s.cleanupCkpt(j)
			s.countTerminal(j, StatusCanceled)
		}
		st, _, _, _ := j.snapshot()
		writeJSON(w, http.StatusAccepted, jobResponse{ID: j.id, Status: st, Kind: j.spec.Kind})
	default:
		writeJSON(w, http.StatusMethodNotAllowed, Errf(KindBadRequest, "unsupported %s %s", r.Method, r.URL.Path))
	}
}

// handleEvents streams the job's lifecycle as server-sent events:
// progress transitions, one id-carrying step event per completed MD step
// (monotone, never duplicated even when a rank crash rewinds the
// engine), heartbeat comments while idle, and exactly one terminal event
// whose data for a done job is byte-identical to the polling result. A
// client that reconnects with Last-Event-ID — to this process or to a
// reopened server recomputing the same job — resumes after the id it
// names.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, j *jobState) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, Errf(KindInternal, "streaming unsupported"))
		return
	}
	lastID := 0
	if v := strings.TrimSpace(r.Header.Get("Last-Event-ID")); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, Errf(KindBadRequest, "bad Last-Event-ID %q: want a non-negative integer", v))
			return
		}
		lastID = n
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, ch, cancel := j.subscribe(lastID)
	defer cancel()
	for _, e := range replay {
		writeSSE(w, e)
	}
	fl.Flush()
	if ch == nil {
		return // already terminal: the replay ended the story
	}
	hb := time.NewTicker(s.cfg.EventHeartbeat)
	defer hb.Stop()
	for {
		select {
		case e, open := <-ch:
			if !open {
				return // ended by terminate, after the terminal event
			}
			writeSSE(w, e)
			fl.Flush()
		case <-hb.C:
			// Comment-only keepalive: ignored by SSE parsers, defeats idle
			// connection reapers between steps of a slow run.
			fmt.Fprint(w, ": hb\n\n")
			fl.Flush()
		case <-s.quit:
			return // shutdown: the client reconnects with Last-Event-ID
		case <-r.Context().Done():
			return
		}
	}
}

// handleProfile serves the stored bottleneck-attribution profile of a
// completed run job.
func (s *Server) handleProfile(w http.ResponseWriter, j *jobState) {
	if j.spec.Kind != KindRun {
		writeJSON(w, http.StatusBadRequest,
			Errf(KindBadRequest, "profiles exist for run jobs only (job kind %q)", j.spec.Kind))
		return
	}
	st, _, _, jerr := j.snapshot()
	if st != StatusDone {
		writeJSON(w, http.StatusConflict, jobResponse{ID: j.id, Status: st, Kind: j.spec.Kind, Error: jerr})
		return
	}
	payload, ok := s.store.Get(profileKey(j.key))
	if !ok {
		// Evicted, or the result predates the profiler: an honest miss,
		// same contract as the result endpoint.
		writeJSON(w, http.StatusGone, Errf(KindTransient, "profile evicted or not recorded; resubmit to recompute"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(payload)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.stopRequested() {
		http.Error(w, "closing", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteProm(w)
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	byStatus := map[string]int{}
	s.mu.Lock()
	for _, j := range s.jobs {
		st, _, _, _ := j.snapshot()
		byStatus[st]++
	}
	jobs := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"jobs":         jobs,
		"by_status":    byStatus,
		"queue_depths": s.queue.depths(),
		"workers_busy": s.busy.Value(),
		"store": map[string]interface{}{
			"entries": s.store.Len(),
			"bytes":   s.store.Bytes(),
		},
	})
}

// ---------------------------------------------------------------------------
// Lifecycle

// Close shuts the server down gracefully: admission stops (new POSTs get
// 503), workers drain their current short jobs, long runs park at their
// next checkpoint boundary, still-queued jobs stay journaled, and the
// HTTP server drains in-flight requests. When ctx expires first the
// remaining connections are force-closed and ctx's error is returned;
// the state directory is safe to reopen either way.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closing || s.aborted {
		s.mu.Unlock()
		return nil
	}
	s.closing = true
	s.mu.Unlock()
	s.quitOnce.Do(func() { close(s.quit) })
	s.queue.close()

	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	var werr error
	select {
	case <-workersDone:
	case <-ctx.Done():
		werr = ctx.Err()
	}
	for _, j := range s.queue.drain() {
		if !j.terminal() {
			s.park(j)
		}
	}
	if err := s.hsrv.Shutdown(ctx); err != nil {
		_ = s.hsrv.Close()
		if werr == nil {
			werr = err
		}
	}
	return werr
}

// Abort simulates a crash for chaos testing: the listener and every
// connection drop immediately and no further state is persisted — the
// journal, store and parked checkpoints stay exactly as the crash found
// them. Unlike a real kill -9, Abort waits for worker goroutines to
// notice and exit (long runs stop at their next step boundary) before
// returning, because a reopened server must be the only writer of the
// state directory; everything those workers would have persisted after
// the abort flag is discarded, which is the part that matters for
// crash-consistency testing.
func (s *Server) Abort() {
	s.mu.Lock()
	if s.closing || s.aborted {
		s.mu.Unlock()
		return
	}
	s.aborted = true
	s.mu.Unlock()
	s.quitOnce.Do(func() { close(s.quit) })
	_ = s.hsrv.Close()
	s.queue.close()
	s.wg.Wait()
}
