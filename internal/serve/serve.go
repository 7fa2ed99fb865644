// Package serve turns the deterministic simulation engine into a
// persistent multi-tenant job service: clients POST study, figure, sweep
// and analysis requests and poll for results, while the server keeps the
// engine's reproducibility guarantees intact under load, crashes and
// restarts.
//
// The pipeline is admission → fair queue → worker → store:
//
//   - Admission validates the spec, coalesces submissions identical to an
//     in-flight job, answers repeats of finished work straight from the
//     content-addressed result store, and sheds load with a clean 429 +
//     Retry-After when a tenant's queue is full.
//   - A weighted fair queue orders accepted jobs by virtual finish time,
//     so a tenant bursting hundreds of cells cannot starve a tenant
//     submitting one.
//   - Workers execute jobs with crash isolation (a panic fails the one
//     job, never the server), bounded retry with exponential backoff for
//     retryable failures, per-job deadlines and cancellation, and
//     graceful quantum preemption of long runs: the MD parks itself at a
//     globally consistent checkpoint boundary (pmd.ErrPreempted) and
//     resumes later from the exact step it stopped at.
//   - The store persists every result under its canonical spec key with a
//     CRC-validated, atomically written file; corrupt or truncated
//     entries are misses that trigger recomputation, never wrong bytes.
//
// Durability: every accepted job is journaled to disk before the 202
// response and the journal entry is removed only after the result reaches
// the store, so a crash anywhere in between replays the job on reopen —
// an accepted job is never lost, it is at worst recomputed (and the
// recomputation is bitwise identical, which is what makes at-least-once
// execution safe here).
//
// # Failure taxonomy
//
// Every job failure carries an ErrorKind that fixes how the server and
// the client should react:
//
//	kind          retryable  meaning
//	bad_request   no         spec invalid; resubmitting the same bytes cannot help
//	overloaded    yes, later admission shed the request; honor Retry-After
//	canceled      no         the client asked for cancellation
//	deadline      no         the job-level deadline expired
//	worker_crash  bounded    the executing worker panicked; isolated and retried
//	transient     bounded    I/O or environment hiccup (store write, checkpoint)
//	internal      no         invariant violation; a bug, not a load condition
//
// "bounded" retries happen server-side with exponential backoff and
// jitter up to Config.MaxRetries; after that the job fails with the last
// error.
package serve

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// ErrorKind classifies a job failure (see the package taxonomy table).
type ErrorKind string

// The failure taxonomy. Retryability is a property of the kind, not of
// the individual error: handlers and workers branch on Retryable() only.
const (
	KindBadRequest  ErrorKind = "bad_request"
	KindOverloaded  ErrorKind = "overloaded"
	KindCanceled    ErrorKind = "canceled"
	KindDeadline    ErrorKind = "deadline"
	KindWorkerCrash ErrorKind = "worker_crash"
	KindTransient   ErrorKind = "transient"
	KindInternal    ErrorKind = "internal"
)

// Retryable reports whether the server may re-execute a job that failed
// with this kind. KindOverloaded is retryable by the CLIENT (after
// Retry-After), not by the server — admission already decided there is no
// room, so it is excluded here.
func (k ErrorKind) Retryable() bool {
	return k == KindWorkerCrash || k == KindTransient
}

// JobError is a classified job failure.
type JobError struct {
	Kind ErrorKind `json:"kind"`
	Msg  string    `json:"msg"`
}

func (e *JobError) Error() string { return fmt.Sprintf("serve: %s: %s", e.Kind, e.Msg) }

// Errf builds a classified error.
func Errf(kind ErrorKind, format string, args ...interface{}) *JobError {
	return &JobError{Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// Config tunes a Server. The zero value of every field selects a sensible
// default (see each field); only StateDir is required.
type Config struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port).
	Addr string

	// StateDir holds everything durable: the result store, the accepted-
	// job journal and parked run checkpoints. A server owns its StateDir
	// exclusively while open; reopening the same directory resumes the
	// journaled work.
	StateDir string

	// StoreMaxBytes bounds the result store; least-recently-used entries
	// are evicted past it. 0 means 64 MiB.
	StoreMaxBytes int64

	// Workers is the number of concurrent job executors. 0 means 2.
	Workers int

	// KernelWorkers spreads each job's physics kernels over host cores
	// (see md.Config.KernelWorkers). Results are byte-identical for every
	// value, so the result store keys on the job spec alone. 0 and
	// negative values mean one worker.
	KernelWorkers int

	// QueueDepth bounds each tenant's queue; a submission past it is shed
	// with 429 + Retry-After. 0 means 8.
	QueueDepth int

	// TenantWeights sets relative fair-queue weights (default 1 each).
	// A weight-2 tenant gets twice the service of a weight-1 tenant when
	// both have backlog.
	TenantWeights map[string]float64

	// DefaultDeadline bounds a job's total lifetime (queue wait included)
	// when the submission does not set one. 0 means 2 minutes.
	DefaultDeadline time.Duration

	// MaxRetries bounds server-side re-execution of retryably failed
	// jobs. 0 means 2; negative disables retries.
	MaxRetries int

	// RetryBaseDelay is the first backoff step (doubled per attempt, with
	// deterministic per-job jitter). 0 means 50ms.
	RetryBaseDelay time.Duration

	// EventHeartbeat spaces the keepalive comments on the SSE job event
	// stream (GET /v1/jobs/<id>/events). 0 means 5 seconds.
	EventHeartbeat time.Duration

	// PreemptQuantum, when > 0, bounds how long a run-kind job may hold a
	// worker before it is parked at the next checkpoint boundary and
	// requeued behind waiting work. 0 disables quantum preemption
	// (cancellation, deadlines and shutdown can still preempt).
	PreemptQuantum time.Duration

	// Obs receives the serve metrics (repro_serve_*); nil creates a
	// private registry.
	Obs *obs.Registry

	// FaultInject, when non-nil, is called at the start of every job
	// attempt (spec, attempt number starting at 1) and may return an
	// error or panic to simulate worker failures. Test hook; nil in
	// production.
	FaultInject func(spec JobSpec, attempt int) error
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.StoreMaxBytes == 0 {
		out.StoreMaxBytes = 64 << 20
	}
	if out.Workers == 0 {
		out.Workers = 2
	}
	if out.QueueDepth == 0 {
		out.QueueDepth = 8
	}
	if out.DefaultDeadline == 0 {
		out.DefaultDeadline = 2 * time.Minute
	}
	if out.MaxRetries == 0 {
		out.MaxRetries = 2
	} else if out.MaxRetries < 0 {
		out.MaxRetries = 0
	}
	if out.RetryBaseDelay == 0 {
		out.RetryBaseDelay = 50 * time.Millisecond
	}
	if out.EventHeartbeat == 0 {
		out.EventHeartbeat = 5 * time.Second
	}
	if out.KernelWorkers < 0 {
		out.KernelWorkers = 0
	}
	if out.Obs == nil {
		out.Obs = obs.NewRegistry()
	}
	return out
}
