package obs

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/trace"
)

// SpanRecord is one completed interval in the hierarchy. Parent indexes
// Recorder.Spans() (-1 for a root span); Depth is the nesting level at
// which the span opened.
type SpanRecord struct {
	Rank   int
	Kind   trace.Kind
	Label  string
	Start  float64
	End    float64
	Depth  int
	Parent int
	Open   bool // still running (only visible in mid-run snapshots)
}

// Duration returns End − Start.
func (s SpanRecord) Duration() float64 { return s.End - s.Start }

// Span is the handle of an open hierarchical span.
type Span struct {
	r     *Recorder
	id    int // index into Recorder.spans
	rank  int
	ended bool
}

// Recorder is the single sink every simulated layer emits into: the MPI
// transport's compute/send/recv/sync intervals, the CMPI middleware's
// synchronization fences, the parallel engine's step and phase spans, the
// sequential engine's durable/guarded runs, and the fault/guard/chaos
// overlays. It subsumes internal/trace — a *trace.Collector keeps the
// flat interval view (timeline rendering and the Chrome trace-event
// export are preserved as sinks) — and extends it with explicit
// parent/child nesting (Begin/End) and automatic per-(kind, rank) second
// and event counters in a Registry.
//
// All methods are safe for concurrent use. After Close, every Begin, End
// and Add is silently dropped (and counted — see Dropped), so late events
// from an unwinding simulation cannot corrupt a finished recording.
type Recorder struct {
	mu      sync.Mutex
	reg     *Registry
	col     trace.Collector
	spans   []SpanRecord
	open    map[int][]int // rank -> stack of open span ids
	closed  bool
	dropped int
}

// NewRecorder builds a recorder publishing its aggregate counters into
// reg. A nil reg gets a private registry (reachable via Registry()).
func NewRecorder(reg *Registry) *Recorder {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Recorder{reg: reg, open: map[int][]int{}}
}

// Registry returns the registry the recorder aggregates into.
func (r *Recorder) Registry() *Registry { return r.reg }

// Collector returns the flat interval view — the preserved
// internal/trace sink with timeline rendering and Chrome export.
func (r *Recorder) Collector() *trace.Collector { return &r.col }

// Dropped returns how many events were discarded after Close.
func (r *Recorder) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// account publishes one completed interval into the flat collector and
// the aggregate counters. Caller must not hold r.mu (counter handles are
// internally synchronized; the collector locks itself).
func (r *Recorder) account(rank int, kind trace.Kind, label string, start, end float64) {
	// end ≥ start is guaranteed by the callers (clamped), so Add cannot
	// fail.
	_ = r.col.Add(trace.Event{Rank: rank, Kind: kind, Label: label, Start: start, End: end})
	rl := L("rank", fmt.Sprintf("%d", rank))
	kl := L("kind", string(kind))
	r.reg.Counter("repro_trace_seconds_total",
		"virtual seconds covered by trace intervals, by kind and rank", kl, rl).Add(end - start)
	r.reg.Counter("repro_trace_events_total",
		"trace intervals recorded, by kind and rank", kl, rl).Inc()
}

// Add records a leaf interval (the trace.Sink contract). It nests under
// the rank's innermost open span. Negative intervals are rejected; adds
// after Close are dropped.
func (r *Recorder) Add(e trace.Event) error {
	if e.End < e.Start {
		return fmt.Errorf("obs: negative interval %+v", e)
	}
	r.mu.Lock()
	if r.closed {
		r.dropped++
		r.mu.Unlock()
		return nil
	}
	stack := r.open[e.Rank]
	parent := -1
	if len(stack) > 0 {
		parent = stack[len(stack)-1]
	}
	r.spans = append(r.spans, SpanRecord{
		Rank: e.Rank, Kind: e.Kind, Label: e.Label,
		Start: e.Start, End: e.End, Depth: len(stack), Parent: parent,
	})
	r.mu.Unlock()
	r.account(e.Rank, e.Kind, e.Label, e.Start, e.End)
	return nil
}

// Begin opens a hierarchical span on rank at virtual time start. The
// returned handle must be closed with End; spans on one rank nest in
// LIFO order. After Close, Begin returns an inert handle.
func (r *Recorder) Begin(rank int, kind trace.Kind, label string, start float64) *Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		r.dropped++
		return &Span{r: r, id: -1, rank: rank, ended: true}
	}
	stack := r.open[rank]
	parent := -1
	if len(stack) > 0 {
		parent = stack[len(stack)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, SpanRecord{
		Rank: rank, Kind: kind, Label: label,
		Start: start, End: start, Depth: len(stack), Parent: parent, Open: true,
	})
	r.open[rank] = append(stack, id)
	return &Span{r: r, id: id, rank: rank}
}

// End closes the span at virtual time end. Ending a span that is not the
// innermost open one implicitly ends every span nested inside it at the
// same time (out-of-order closes cannot corrupt the hierarchy); ending a
// span twice is a no-op; an end before the span's start is clamped to a
// zero-duration span.
func (s *Span) End(end float64) {
	r := s.r
	r.mu.Lock()
	if s.ended || r.closed || s.id < 0 {
		if r.closed && !s.ended {
			r.dropped++
			s.ended = true
		}
		r.mu.Unlock()
		return
	}
	s.ended = true
	stack := r.open[s.rank]
	at := -1
	for i, id := range stack {
		if id == s.id {
			at = i
			break
		}
	}
	if at < 0 {
		// Already force-closed by an out-of-order ancestor End.
		r.mu.Unlock()
		return
	}
	// Close s and everything opened inside it, innermost first.
	var done []SpanRecord
	for i := len(stack) - 1; i >= at; i-- {
		rec := &r.spans[stack[i]]
		e := end
		if e < rec.Start {
			e = rec.Start
		}
		rec.End = e
		rec.Open = false
		done = append(done, *rec)
	}
	r.open[s.rank] = stack[:at]
	r.mu.Unlock()
	for _, rec := range done {
		r.account(rec.Rank, rec.Kind, rec.Label, rec.Start, rec.End)
	}
}

// Close seals the recorder: still-open spans are discarded and every
// later Begin/End/Add is dropped. Closing twice is a no-op.
func (r *Recorder) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	// Drop unfinished spans rather than inventing end times for them.
	kept := r.spans[:0]
	remap := make([]int, len(r.spans))
	for i := range remap {
		remap[i] = -1
	}
	for i, sp := range r.spans {
		if sp.Open {
			continue
		}
		if sp.Parent >= 0 {
			sp.Parent = remap[sp.Parent]
		}
		remap[i] = len(kept)
		kept = append(kept, sp)
	}
	r.spans = kept
	r.open = map[int][]int{}
}

// Spans returns the recorded spans in recording order (mid-run snapshots
// include still-open spans with Open set; Close discards unfinished
// spans and compacts parent indices).
func (r *Recorder) Spans() []SpanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SpanRecord(nil), r.spans...)
}

// WriteChromeJSON emits the flat interval view in the Chrome trace-event
// array format — the export cmd/tracer always had, preserved as one of
// the recorder's sinks.
func (r *Recorder) WriteChromeJSON(w io.Writer) error { return r.col.WriteChromeJSON(w) }

// RenderTimeline writes the per-rank ASCII gantt of the flat view.
func (r *Recorder) RenderTimeline(w io.Writer, width int) error {
	return r.col.RenderTimeline(w, width)
}

var _ trace.Sink = (*Recorder)(nil)
