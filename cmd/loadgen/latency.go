package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// latencyTracker measures the submit-to-done latency of every accepted
// job, bucketed by job kind, plus completion throughput. Submission time
// is stamped at the FIRST acceptance of an id (chaos-mode resubmissions
// of the same id do not reset the clock — the contract is "accepted work
// finishes", so the outage time counts) and completion at the first
// "done" observation.
type latencyTracker struct {
	mu     sync.Mutex
	start  map[string]time.Time
	done   map[string]bool
	byKind map[string][]time.Duration

	firstSubmit time.Time
	lastDone    time.Time
}

func newLatencyTracker() *latencyTracker {
	return &latencyTracker{
		start:  map[string]time.Time{},
		done:   map[string]bool{},
		byKind: map[string][]time.Duration{},
	}
}

// submitted stamps id's acceptance; repeat calls for the same id keep the
// first stamp.
func (l *latencyTracker) submitted(id string) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.start[id]; ok {
		return
	}
	l.start[id] = now
	if l.firstSubmit.IsZero() {
		l.firstSubmit = now
	}
}

// completed records id's first observed completion under the given kind.
func (l *latencyTracker) completed(id, kind string) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done[id] {
		return
	}
	t0, ok := l.start[id]
	if !ok {
		return // never saw the acceptance (e.g. pre-restart journal replay)
	}
	l.done[id] = true
	l.byKind[kind] = append(l.byKind[kind], now.Sub(t0))
	l.lastDone = now
}

// percentile returns the q-th percentile (0 ≤ q ≤ 1) of xs by the
// nearest-rank method. xs need not be sorted; it is not modified.
func percentile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// summary renders one human-readable line per kind for the PASS/FAIL
// report.
func (l *latencyTracker) summary() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	span := l.lastDone.Sub(l.firstSubmit).Seconds()
	kinds := make([]string, 0, len(l.byKind))
	for k := range l.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var out []string
	for _, kind := range kinds {
		ls := l.byKind[kind]
		thr := 0.0
		if span > 0 {
			thr = float64(len(ls)) / span
		}
		out = append(out, fmt.Sprintf("latency %s: n=%d p50=%v p99=%v throughput=%.1f jobs/s",
			kind, len(ls), percentile(ls, 0.50).Round(time.Microsecond),
			percentile(ls, 0.99).Round(time.Microsecond), thr))
	}
	return out
}
