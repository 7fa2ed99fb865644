// Package trace collects timestamped events from simulated runs and
// renders them as per-rank text timelines or Chrome trace-event JSON
// (load chrome://tracing or Perfetto to inspect a run). The paper's
// methodology is exactly this kind of instrumentation — decomposing wall
// time into labelled intervals per processor.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Kind classifies an interval.
type Kind string

// The interval kinds emitted by the simulated MPI layer and the parallel
// MD engine.
const (
	KindCompute Kind = "compute"
	KindSend    Kind = "send"
	KindRecv    Kind = "recv"
	KindSync    Kind = "sync"
	KindPhase   Kind = "phase"
	KindFault   Kind = "fault" // injected fault window (topmost overlay)
)

// Event is one labelled interval on one rank's timeline.
type Event struct {
	Rank  int
	Kind  Kind
	Label string
	Start float64 // seconds, virtual time
	End   float64
}

// Duration returns End − Start.
func (e Event) Duration() float64 { return e.End - e.Start }

// KnownKinds lists every interval kind a collector can receive, in render
// order.
func KnownKinds() []Kind {
	return []Kind{KindPhase, KindSync, KindSend, KindRecv, KindCompute, KindFault}
}

// KnownKind reports whether s names one of the emitted interval kinds.
func KnownKind(s string) bool {
	for _, k := range KnownKinds() {
		if Kind(s) == k {
			return true
		}
	}
	return false
}

// Collector accumulates events. The zero value is ready to use. All
// methods are safe for concurrent use: the discrete-event simulation is
// sequential, but the host-parallel worker pool (-workers, see
// internal/sim) may drive instrumented segments from several goroutines.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Add records one event. Intervals with End < Start are rejected.
func (c *Collector) Add(e Event) error {
	if e.End < e.Start {
		return fmt.Errorf("trace: negative interval %+v", e)
	}
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
	return nil
}

// snapshot copies the current event slice under the lock.
func (c *Collector) snapshot() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Events returns the recorded events sorted by (start, rank).
func (c *Collector) Events() []Event {
	out := c.snapshot()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// Len returns the number of recorded events.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Span returns the overall [min start, max end] of the trace.
func (c *Collector) Span() (start, end float64) {
	events := c.snapshot()
	if len(events) == 0 {
		return 0, 0
	}
	start, end = events[0].Start, events[0].End
	for _, e := range events {
		if e.Start < start {
			start = e.Start
		}
		if e.End > end {
			end = e.End
		}
	}
	return start, end
}

// Busy sums, per rank, the time covered by events of the given kind.
func (c *Collector) Busy(kind Kind) map[int]float64 {
	out := map[int]float64{}
	for _, e := range c.snapshot() {
		if e.Kind == kind {
			out[e.Rank] += e.Duration()
		}
	}
	return out
}

// Filter returns a new collector holding only events whose kind is in
// kinds (nil/empty keeps every kind) and whose duration is at least
// minDur. It is how cmd/tracer cuts huge timelines down to the lanes of
// interest.
func (c *Collector) Filter(kinds []Kind, minDur float64) *Collector {
	keep := map[Kind]bool{}
	for _, k := range kinds {
		keep[k] = true
	}
	out := &Collector{}
	for _, e := range c.snapshot() {
		if len(keep) > 0 && !keep[e.Kind] {
			continue
		}
		if e.Duration() < minDur {
			continue
		}
		out.events = append(out.events, e)
	}
	return out
}

// glyphs for the text timeline, one per kind.
var glyph = map[Kind]rune{
	KindCompute: '#',
	KindSend:    '>',
	KindRecv:    '<',
	KindSync:    '.',
	KindPhase:   '-',
	KindFault:   'X',
}

// RenderTimeline writes a per-rank ASCII gantt of the trace, `width`
// characters across the full span. Later events overwrite earlier ones in
// a cell; compute wins ties so the picture shows where CPUs are busy.
func (c *Collector) RenderTimeline(w io.Writer, width int) error {
	if width < 10 {
		width = 10
	}
	events := c.snapshot()
	start, end := c.Span()
	if end <= start {
		_, err := fmt.Fprintln(w, "trace: empty")
		return err
	}
	ranks := map[int]bool{}
	for _, e := range events {
		ranks[e.Rank] = true
	}
	ids := make([]int, 0, len(ranks))
	for r := range ranks {
		ids = append(ids, r)
	}
	sort.Ints(ids)

	scale := float64(width) / (end - start)
	lanes := map[int][]rune{}
	for _, r := range ids {
		lanes[r] = []rune(strings.Repeat(" ", width))
	}
	// Order: phases first (background), then comm, then compute; fault
	// windows are an overlay and render topmost so they stay visible.
	order := KnownKinds()
	for _, kind := range order {
		for _, e := range events {
			if e.Kind != kind {
				continue
			}
			lo := int((e.Start - start) * scale)
			hi := int((e.End - start) * scale)
			if hi == lo {
				hi = lo + 1
			}
			lane := lanes[e.Rank]
			for i := lo; i < hi && i < width; i++ {
				lane[i] = glyph[kind]
			}
		}
	}
	fmt.Fprintf(w, "timeline %.6f .. %.6f s  (# compute, > send, < recv, . sync, X fault)\n", start, end)
	for _, r := range ids {
		if _, err := fmt.Fprintf(w, "rank %2d |%s|\n", r, string(lanes[r])); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is the Chrome trace-event "complete" record.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// WriteChromeJSON emits the trace in the Chrome trace-event array format.
func (c *Collector) WriteChromeJSON(w io.Writer) error {
	out := make([]chromeEvent, 0, c.Len())
	for _, e := range c.Events() {
		out = append(out, chromeEvent{
			Name: e.Label,
			Cat:  string(e.Kind),
			Ph:   "X",
			Ts:   e.Start * 1e6,
			Dur:  e.Duration() * 1e6,
			Pid:  0,
			Tid:  e.Rank,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
