package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the harness
// around its own call into that layer. Spans of one workload share its
// name as their identifier; Parent is the span that caused this one (-1
// for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: start returns -1 and end does nothing, so the timed code
// is the same on both paths and the untraced one never reads the clock
// for a span.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// start opens a span under parent and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNS: now, EndNS: -1})
	t.mu.Unlock()
	return id
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.EndNS >= s.StartNS {
			out = append(out, s)
		}
	}
	return out
}

// durationsMS returns the duration of every closed span named name.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// selfTimeNS returns, per span id, the span's duration minus the part of
// its interval its child spans cover. Children that overlap one another
// (parallel clients under one phase span) cover their union once.
func selfTimeNS(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	kids := map[int][]iv{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.StartNS, s.EndNS
		if lo < p.StartNS {
			lo = p.StartNS
		}
		if hi > p.EndNS {
			hi = p.EndNS
		}
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, end int64
		end = s.StartNS
		for _, v := range ivs {
			if v.hi <= end {
				continue
			}
			lo := v.lo
			if lo < end {
				lo = end
			}
			covered += v.hi - lo
			end = v.hi
		}
		self[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// selfByNameMS sums self time per span name, in milliseconds.
func selfByNameMS(spans []span) map[string]float64 {
	self := selfTimeNS(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e6
	}
	return out
}

// write stores the spans as benchmark/out/trace-<workload>.json under dir.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	buf, err := json.Marshal(t.snapshot())
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
