// Package obs is the observability layer of the reproduction: a typed
// metrics registry (counters, gauges, fixed-bucket histograms) and the
// sinks that make a run inspectable — Prometheus-style text exposition, a
// JSON run manifest with provenance, and an opt-in net/http introspection
// server. It stores no events: the intervals of a simulated run are kept,
// when asked for, by an internal/trace collector, and this package only
// holds their per-(kind, rank) totals.
//
// The paper's methodology *is* observability: it decomposes wall time per
// processor into computation / data transfer / control transfer and
// attributes it to the classic and PME phases. This package makes that
// decomposition a queryable property of every run instead of a one-off
// figure: the simulated MPI transport, the CMPI middleware, the parallel
// and sequential MD engines, the fault injector and the chaos harness all
// publish into one Registry.
//
// Metric naming scheme (see DESIGN.md §11):
//
//	repro_<area>_<noun>_<unit>[_total]
//
// with the paper's decomposition carried on labels: phase="classic"|"pme"
// and bucket="compute"|"comm"|"sync" on repro_phase_seconds_total, plus a
// rank label on every per-processor series.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to a metric series. Values may be
// arbitrary strings; they are escaped at exposition time.
type Label struct {
	K, V string
}

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{K: k, V: v} }

var nameRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// metricType discriminates the registry's three series kinds.
type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// atomicFloat is a float64 updated with CAS loops so counters and gauges
// stay race-free without a lock on the hot path.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) Add(d float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Counter is a monotonically non-decreasing value.
type Counter struct{ v atomicFloat }

// Add increases the counter by d; negative deltas panic (use a Gauge for
// values that can move both ways).
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("obs: negative counter delta %g", d))
	}
	c.v.Add(d)
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add shifts the value by d (either sign).
func (g *Gauge) Add(d float64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds; an implicit +Inf bucket always exists.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1, last is +Inf
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
}

// Snapshot returns the cumulative bucket counts (aligned with Bounds, plus
// the +Inf bucket), the sample sum and the sample count.
func (h *Histogram) Snapshot() (cum []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return cum, h.sum, h.count
}

// Bounds returns the configured upper bounds (without +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start with the given growth factor — the usual latency/size ladder.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// series is one labelled instance of a family.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is every series sharing one metric name.
type family struct {
	name    string
	help    string
	typ     metricType
	buckets []float64
	series  map[string]*series
	order   []string // insertion-ordered signatures, sorted at exposition
}

// Registry is a set of named metric families. The zero value is not
// usable; call NewRegistry. All methods are safe for concurrent use.
// Re-requesting an existing (name, labels) series returns the same
// handle; re-declaring a name with a different type panics — the registry
// is typed, exactly so that a counter can never silently become a gauge.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// signature serializes labels into a stable map key (sorted by key).
// Every field is length-prefixed: separator bytes alone are not injective
// when label VALUES may contain them — {a:"x", b:"y"} and
// {a:"x<sep>b<sep>y"} would collide and silently merge two series.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].K < ls[j].K })
	var b strings.Builder
	for _, l := range ls {
		fmt.Fprintf(&b, "%d:%s=%d:%s;", len(l.K), l.K, len(l.V), l.V)
	}
	return b.String()
}

func validate(name string, labels []Label) {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRe.MatchString(l.K) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %s", l.K, name))
		}
	}
}

// lookup returns (creating on demand) the series for (name, labels),
// checking the type invariant.
func (r *Registry) lookup(name, help string, typ metricType, buckets []float64, labels []Label) *series {
	validate(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets, series: map[string]*series{}}
		r.families[name] = f
		r.names = append(r.names, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s redeclared as %s (was %s)", name, typ, f.typ))
	}
	sig := signature(labels)
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		switch typ {
		case typeCounter:
			s.c = &Counter{}
		case typeGauge:
			s.g = &Gauge{}
		case typeHistogram:
			s.h = &Histogram{
				bounds: append([]float64(nil), f.buckets...),
				counts: make([]uint64, len(f.buckets)+1),
			}
		}
		f.series[sig] = s
		f.order = append(f.order, sig)
	}
	return s
}

// Counter returns the counter series for (name, labels), creating it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, typeCounter, nil, labels).c
}

// Gauge returns the gauge series for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, typeGauge, nil, labels).g
}

// Histogram returns the histogram series for (name, labels). The bucket
// bounds are fixed by the first declaration of the family; they must be
// strictly increasing.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not strictly increasing", name))
		}
	}
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %s needs at least one bucket", name))
	}
	return r.lookup(name, help, typeHistogram, buckets, labels).h
}

// Point is one sampled series in a registry snapshot. Histograms carry
// Sum/Count plus the cumulative Buckets aligned with Bounds.
type Point struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
	Sum    float64           `json:"sum,omitempty"`
	Count  uint64            `json:"count,omitempty"`
	Bounds []float64         `json:"bounds,omitempty"`
	Cum    []uint64          `json:"cumulative,omitempty"`
}

// Snapshot returns every series as a Point, sorted by (name, labels) so
// output is deterministic.
func (r *Registry) Snapshot() []Point {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	r.mu.Unlock()
	sort.Strings(names)

	var out []Point
	for _, name := range names {
		r.mu.Lock()
		f := r.families[name]
		sigs := append([]string(nil), f.order...)
		r.mu.Unlock()
		sort.Strings(sigs)
		for _, sig := range sigs {
			r.mu.Lock()
			s := f.series[sig]
			r.mu.Unlock()
			p := Point{Name: name, Type: f.typ.String()}
			if len(s.labels) > 0 {
				p.Labels = map[string]string{}
				for _, l := range s.labels {
					p.Labels[l.K] = l.V
				}
			}
			switch f.typ {
			case typeCounter:
				p.Value = s.c.Value()
			case typeGauge:
				p.Value = s.g.Value()
			case typeHistogram:
				p.Cum, p.Sum, p.Count = s.h.Snapshot()
				p.Bounds = s.h.Bounds()
				p.Value = p.Sum
			}
			out = append(out, p)
		}
	}
	return out
}

// Value returns the current value of the counter or gauge series matching
// name and labels exactly, or 0 when the series does not exist. Histograms
// report their sample sum.
func (r *Registry) Value(name string, labels ...Label) float64 {
	r.mu.Lock()
	f, ok := r.families[name]
	if !ok {
		r.mu.Unlock()
		return 0
	}
	s, ok := f.series[signature(labels)]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	switch {
	case s.c != nil:
		return s.c.Value()
	case s.g != nil:
		return s.g.Value()
	default:
		_, sum, _ := s.h.Snapshot()
		return sum
	}
}
