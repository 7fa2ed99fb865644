package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []time.Duration{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 3},
		{0.99, 5},
		{0.0, 1},
		{1.0, 5},
	}
	for _, tc := range cases {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(%.2f) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %d, want 0", got)
	}
	// percentile must not reorder its input.
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestLatencyTrackerFirstStampWins(t *testing.T) {
	l := newLatencyTracker()
	l.submitted("a")
	first := l.start["a"]
	time.Sleep(2 * time.Millisecond)
	l.submitted("a") // chaos resubmission: clock must not reset
	if l.start["a"] != first {
		t.Error("resubmission reset the acceptance stamp")
	}
	l.completed("a", "run")
	n := len(l.byKind["run"])
	l.completed("a", "run") // second done observation: no double count
	if len(l.byKind["run"]) != n {
		t.Error("repeat completion double-counted")
	}
	l.completed("ghost", "run") // never accepted: ignored
	if len(l.byKind["run"]) != 1 {
		t.Errorf("ghost completion recorded; byKind=%v", l.byKind)
	}
}

func TestLatencySummaryLines(t *testing.T) {
	t0 := time.Unix(0, 0)
	l := newLatencyTracker()
	l.byKind["sweep"] = []time.Duration{40 * time.Millisecond}
	l.byKind["run"] = []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	l.firstSubmit, l.lastDone = t0, t0.Add(2*time.Second)
	want := []string{ // kinds sorted, throughput over the first-submit to last-done span
		"latency run: n=3 p50=2ms p99=3ms throughput=1.5 jobs/s",
		"latency sweep: n=1 p50=40ms p99=40ms throughput=0.5 jobs/s",
	}
	got := l.summary()
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d: %q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: %q, want %q", i, got[i], want[i])
		}
	}
}
