package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func sample() *Collector {
	c := &Collector{}
	_ = c.Add(Event{Rank: 0, Kind: KindCompute, Label: "work", Start: 0, End: 0.5})
	_ = c.Add(Event{Rank: 0, Kind: KindSend, Label: "send", Start: 0.5, End: 0.6})
	_ = c.Add(Event{Rank: 1, Kind: KindSync, Label: "wait", Start: 0, End: 0.55})
	_ = c.Add(Event{Rank: 1, Kind: KindRecv, Label: "recv", Start: 0.55, End: 0.7})
	return c
}

func TestAddRejectsNegativeInterval(t *testing.T) {
	c := &Collector{}
	if err := c.Add(Event{Start: 2, End: 1}); err == nil {
		t.Fatal("negative interval accepted")
	}
	if c.Len() != 0 {
		t.Fatal("bad event stored")
	}
}

func TestEventsSorted(t *testing.T) {
	c := &Collector{}
	_ = c.Add(Event{Rank: 1, Start: 5, End: 6})
	_ = c.Add(Event{Rank: 0, Start: 1, End: 2})
	_ = c.Add(Event{Rank: 0, Start: 5, End: 7})
	ev := c.Events()
	if ev[0].Start != 1 || ev[1].Rank != 0 || ev[2].Rank != 1 {
		t.Fatalf("ordering wrong: %+v", ev)
	}
}

func TestSpanAndBusy(t *testing.T) {
	c := sample()
	start, end := c.Span()
	if start != 0 || end != 0.7 {
		t.Fatalf("span = [%v, %v]", start, end)
	}
	busy := c.Busy(KindCompute)
	if busy[0] != 0.5 || busy[1] != 0 {
		t.Fatalf("busy = %v", busy)
	}
	if c.Busy(KindSync)[1] != 0.55 {
		t.Fatalf("sync busy = %v", c.Busy(KindSync))
	}
}

func TestRenderTimeline(t *testing.T) {
	c := sample()
	var b strings.Builder
	if err := c.RenderTimeline(&b, 40); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "rank  0") || !strings.Contains(out, "rank  1") {
		t.Fatalf("missing lanes:\n%s", out)
	}
	// Rank 0 computes for the first ~70% of the span.
	lines := strings.Split(out, "\n")
	var lane0 string
	for _, ln := range lines {
		if strings.HasPrefix(ln, "rank  0") {
			lane0 = ln
		}
	}
	if !strings.Contains(lane0, "####") {
		t.Fatalf("rank 0 lane has no compute: %q", lane0)
	}
	// Empty collector renders a placeholder without panicking.
	var e strings.Builder
	if err := (&Collector{}).RenderTimeline(&e, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.String(), "empty") {
		t.Fatalf("empty render: %q", e.String())
	}
}

func TestChromeJSON(t *testing.T) {
	c := sample()
	var b strings.Builder
	if err := c.WriteChromeJSON(&b); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]interface{}
	if err := json.Unmarshal([]byte(b.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(parsed) != 4 {
		t.Fatalf("events = %d", len(parsed))
	}
	first := parsed[0]
	if first["ph"] != "X" {
		t.Fatalf("phase field %v", first["ph"])
	}
	if first["dur"].(float64) <= 0 {
		t.Fatal("non-positive duration")
	}
}

// Add and the readers must tolerate concurrent use (run with -race).
func TestCollectorConcurrentAdd(t *testing.T) {
	c := &Collector{}
	var wg sync.WaitGroup
	const writers, per = 8, 200
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = c.Add(Event{Rank: g, Kind: KindCompute, Label: "w", Start: float64(i), End: float64(i) + 0.5})
				// Interleave reads with writes: these must not race.
				_ = c.Len()
				_ = c.Busy(KindCompute)
			}
		}(g)
	}
	wg.Wait()
	if got := c.Len(); got != writers*per {
		t.Fatalf("events = %d, want %d", got, writers*per)
	}
	start, end := c.Span()
	if start != 0 || end != per-1+0.5 {
		t.Fatalf("span = [%g, %g]", start, end)
	}
}
